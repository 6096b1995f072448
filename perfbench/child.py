"""One timed experiment in a fresh interpreter.

    python3 perfbench/child.py --config CFG --out DIR --result FILE
        --launched T [--trace] [--setup-only]

``--launched`` is the ``time.monotonic()`` reading of the parent just before
it started this process, so ``setup_s`` covers interpreter start, the numpy
and smtde imports and config validation. The BLAS pools are pinned to one
thread before numpy is imported, and ``cli.run`` gets ``threads=1``: the
plain single-threaded baseline, whose output bits do not depend on the BLAS
thread count.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREADS = 1
OUTPUT_FILES = ("results.csv", "report.json", "meta.json")


def _blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def run_record(numpy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_version(numpy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "threads": THREADS,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    from smtde import cli
    if Path(cli.__file__).resolve().parent != SRC / "smtde":
        print(f"smtde imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(args.config, encoding="utf-8") as fh:
        cli.load_config(json.load(fh))
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    rc = cli.run(args.config, args.out, threads=THREADS)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rc": rc, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "record": run_record(numpy)}
    if tracer is not None:
        out = Path(args.out)
        tracer.counters["cli.output_bytes"] = sum(
            (out / name).stat().st_size for name in OUTPUT_FILES
            if (out / name).exists())
        result["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
