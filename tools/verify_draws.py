"""One sha256 of every random draw of each `verify` suite, for draw checks.

Runs `resgame.verify.run_suites` for each seed given and each (trials,
nmax) in SIZES, with every suite's generator wrapped so that each call to it
(method name, arguments and result) feeds one sha256 per suite, and
prints "<seed> <trials> <nmax> <suite> <digest> <calls> <status>" per
suite, where status is "pass" or "fail". Two checkouts whose suites draw
the same numbers in the same order, and reach the same outcomes, print
the same lines:

    python3 tools/verify_draws.py --seeds 0-3 > after.txt
    python3 <other checkout>/tools/verify_draws.py --seeds 0-3 > before.txt
    diff before.txt after.txt

SIZES are the default ensemble, the one of the CLI tests, and the
smallest allowed nmax.

The `resgame` imported is that of the checkout that holds this script.
The seed syntax and the one-thread BLAS start-up are those of
tools/output_digests.py, whose `_seeds` this script imports.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

from output_digests import _seeds

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((15, 8), (4, 6), (2, 3))  # (trials, nmax)


class _Recorder:
    """A generator stand-in that hashes every call before returning its result."""

    def __init__(self, rng, np):
        self._rng, self._np = rng, np
        self.digest, self.calls = hashlib.sha256(), 0

    def __getattr__(self, method):
        draw = getattr(self._rng, method)

        def call(*args, **kwargs):
            result = draw(*args, **kwargs)
            out = self._np.asarray(result)
            self.digest.update(repr((method, args, sorted(kwargs.items()), out.dtype.str, out.shape)).encode())
            self.digest.update(out.tobytes())
            self.calls += 1
            return result

        return call


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=[0], help='e.g. "0-3" or "1,4,7"')
    args = parser.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before NumPy loads BLAS
    sys.path[:0] = [str(ROOT / "src")]
    import numpy as np

    from resgame import verify

    suites = verify.SUITES
    for seed in args.seeds:
        for trials, nmax in SIZES:
            recorders = {}

            def wrap(name, fn):
                def suite(rng, *rest, **kwargs):
                    recorders[name] = _Recorder(rng, np)
                    return fn(recorders[name], *rest, **kwargs)

                return suite

            verify.SUITES = [(name, wrap(name, fn)) for name, fn in suites]
            try:
                results = verify.run_suites(seed=seed, trials=trials, nmax=nmax)
            finally:
                verify.SUITES = suites
            for name, status in results.items():
                rec = recorders[name]
                print(seed, trials, nmax, name, rec.digest.hexdigest(), rec.calls,
                      status.split(":")[0], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
