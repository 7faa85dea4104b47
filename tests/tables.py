"""Golden run-length tables for the three published scans.

Tables 2 and 3 reproduce exactly. Table 1 as printed contains two boundary
errors that are provably impossible: with f = x(27x - 1), the difference
f(l) - f(k) = (l - k)(27(l + k) - 1), and

    27 * (94 + 96) - 1 = 5129 = 23 * 223   -> f(94) = f(96)  (mod 223)
    27 * (268 + 269) - 1 = 14498 = 22 * 659 -> f(268) = f(269) (mod 659)

so 223 cannot discriminate n = 96 and 659 cannot discriminate n = 269.
TABLE1_CORRECTED moves those two run boundaries accordingly; everything
else matches the published table. The certificates are asserted in the
acceptance suite.

This module imports the standard library only. The benchmark harness
(bench/workloads.py) reads TABLE3 by executing this file's text in a process
that has no polydisc on sys.path, so a polydisc import here would break every
benchmark workload; tests/test_cli.py runs it that way.
"""

import itertools

TABLE1_PUBLISHED = [
    (1, 1, 1), (2, 3, 3), (4, 9, 9), (10, 27, 27), (28, 81, 81),
    (82, 97, 223), (98, 243, 243), (244, 260, 541), (261, 270, 659),
    (271, 300, 709),
]

TABLE1_CORRECTED = [
    (1, 1, 1), (2, 3, 3), (4, 9, 9), (10, 27, 27), (28, 81, 81),
    (82, 95, 223), (96, 243, 243), (244, 260, 541), (261, 268, 659),
    (269, 300, 709),
]

# (colliding pair (k, l), modulus it defeats, cofactor in the certificate)
TABLE1_CERTIFICATES = [
    ((94, 96), 223, 23),
    ((268, 269), 659, 22),
]

TABLE2 = [
    (1, 1, 1), (2, 2, 3), (3, 7, 7), (8, 8, 16), (9, 9, 21),
    (10, 17, 37), (18, 18, 41), (19, 49, 49), (50, 61, 131),
    (62, 70, 157), (71, 96, 197), (97, 107, 229), (108, 152, 331),
    (153, 300, 343),
]

TABLE3 = [
    (1, 1, 1), (2, 2, 3), (3, 4, 7), (5, 5, 15), (6, 10, 19),
    (11, 29, 29), (30, 34, 73), (35, 43, 97), (44, 47, 109),
    (48, 61, 131), (62, 62, 151), (63, 72, 167), (73, 75, 199),
    (76, 112, 233), (113, 121, 271), (122, 122, 283), (123, 168, 349),
    (169, 196, 421), (197, 197, 457), (198, 223, 479), (224, 225, 503),
    (226, 252, 523), (253, 277, 619), (278, 304, 653), (305, 358, 769),
    (359, 385, 827), (386, 500, 841),
]

# Small-n disagreements between the x^j power formula and the oracle,
# keyed by j: (n, oracle, formula). Empty for the odd exponents tested.
POWER_FORMULA_SMALL_N = {
    2: [(1, 1, 3), (2, 2, 4), (4, 9, 10)],
    4: [(1, 1, 3), (2, 2, 4), (4, 9, 11), (8, 18, 19)],
    6: [(1, 1, 3), (2, 2, 4)],
}


def per_n(runs):
    """(n, D(n)) for every n that `scan`'s runs cover, in order."""
    return [(n, run.value) for run in runs for n in range(run.n_low, run.n_high + 1)]


def perturbed_scan(scan, bump):
    """`scan` with `bump(n)` added to D at each n, regrouped into runs of one
    value; a check that reads the oracle's runs then sees a wrong oracle."""
    from polydisc import Run  # bench/workloads.py runs this file without polydisc on the path

    def perturbed(f, n_max):
        pairs = [(n, value + bump(n)) for n, value in per_n(scan(f, n_max))]
        groups = (list(group) for _, group in itertools.groupby(pairs, key=lambda pair: pair[1]))
        return [Run(group[0][0], group[-1][0], group[0][1], 0) for group in groups]
    return perturbed
