"""Check gaussian_divergence on the matrices behind divergence.csv against a
50-digit evaluation.

    PYTHONPATH=src python3 tools/divergence_accuracy.py [--seed 7] [--count 40]

Trains the README scene with a rotation sweep at the seed, runs the divergence
table that `driftbeam analyze` writes, and keeps every (r1, r2) matrix pair
that it passes to gaussian_divergence with the float64 result. A matrix pair
is "far" when the whitened difference has an eigenvalue below -0.5, where the
log terms are taken together, and "near" otherwise. From each kind, --count
pairs drawn with a fixed generator are evaluated with mpmath at 50 digits as

    0.5 * [re tr(R2^-1 R1) - M - ln det R1 + ln det R2],

which cancels nothing at that precision, and the relative error of the float64
result is printed per kind (median and max) with one JSON line of the errors.
Run it with PYTHONPATH pointing at two checkouts to compare their kernels on
the same matrices.
"""

import argparse
import json
import statistics

import mpmath
import numpy as np

from driftbeam import cli, evaluate


def captured_pairs(seed):
    """Every (r1, r2, result) matrix pair of the rotation scene's divergence table."""
    config = cli.load_config(None, {"seed": seed, "motion": {"kind": "rotation_sweep"}})
    covs = cli._train(config)
    pairs, kernel = [], evaluate.gaussian_divergence

    def recording(r1, r2):
        result = kernel(r1, r2)
        shape = np.shape(result)
        for index in np.ndindex(*shape):
            pairs.append((np.broadcast_to(r1, shape + r1.shape[-2:])[index],
                          np.broadcast_to(r2, shape + r2.shape[-2:])[index],
                          float(np.asarray(result)[index])))
        return result

    evaluate.gaussian_divergence = recording
    try:
        cli._divergence_table(covs)
    finally:
        evaluate.gaussian_divergence = kernel
    return pairs


def exact_divergence(r1, r2):
    mpmath.mp.dps = 50
    a, b = (mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in r])
            for r in (r1, r2))
    m = r1.shape[0]
    ratio = mpmath.inverse(b) * a
    trace = mpmath.re(sum(ratio[k, k] for k in range(m)))
    return 0.5 * (trace - m - mpmath.log(mpmath.re(mpmath.det(a)))
                  + mpmath.log(mpmath.re(mpmath.det(b))))


def is_far(r1, r2):
    inv_chol = np.linalg.inv(np.linalg.cholesky(r2))
    whitened = inv_chol @ (r1 - r2) @ inv_chol.conj().T
    return np.linalg.eigvalsh(0.5 * (whitened + whitened.conj().T))[0] < -0.5


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=40, help="matrix pairs per kind")
    args = parser.parse_args()
    pairs = captured_pairs(args.seed)
    kinds = {"far": [], "near": []}
    for k, (r1, r2, _) in enumerate(pairs):
        kinds["far" if is_far(r1, r2) else "near"].append(k)
    rng = np.random.default_rng(0)
    report = {"seed": args.seed, "pairs": len(pairs)}
    for kind, indices in kinds.items():
        chosen = sorted(rng.choice(indices, min(args.count, len(indices)), replace=False).tolist())
        errors = []
        for k in chosen:
            r1, r2, value = pairs[k]
            exact = exact_divergence(r1, r2)
            errors.append(float(abs((mpmath.mpf(value) - exact) / exact)))
        report[kind] = {"available": len(indices), "checked": chosen, "rel_errors": errors,
                        "median": statistics.median(errors), "max": max(errors)}
        print(f"{kind}: {len(chosen)} of {len(indices)} pairs, relative error median "
              f"{statistics.median(errors):.2e}, max {max(errors):.2e}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
