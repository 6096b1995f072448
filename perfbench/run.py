"""The smtde benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|tiny]

Run from the root of a source checkout; smtde is imported from its ``src``.
The benchmark writes the workload's config, then runs it through
``smtde.cli.run`` in a fresh interpreter per sample (``child.py``), one after
the other, until the next sample would end past ``--seconds``. Each sample's
outputs are checked against the stored reference (``check.py``).

With ``--trace 0`` it reports the end-to-end metrics as medians over the
samples; with ``--trace 1`` it alternates untraced and traced samples and
reports the per-layer split of the traced ones (``spans.py``). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is 0 only if
every sample ran and passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
from workloads import SIZES, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_DIR = ROOT / ".perfbench-work"
SAMPLE_TIMEOUT_S = 150
# set-ups timed on their own per run, besides the one of each sample
SETUP_RUNS = 6

# name -> unit, in the order of printing
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _interrupt(signum, frame):
    raise SystemExit(128 + signum)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def launch(config: Path, out: Path, result: Path, *extra: str) -> dict | None:
    """Run ``child.py`` once; returns its result, or None if it failed."""
    cmd = [sys.executable, str(CHILD), "--config", str(config), "--out", str(out),
           "--result", str(result), *extra]
    try:
        proc = subprocess.run(cmd + ["--launched", repr(time.monotonic())],
                              capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {SAMPLE_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, size: str, seed: int, seconds: float,
            trace: bool, work: Path) -> tuple[list[dict], list[float], int, int, dict]:
    """Samples until the next one would end past ``seconds``.

    Returns the results of the samples that ran, the set-up times, the counts
    of attempted and failed samples, and the run record.
    """
    config = work / "config.json"
    cfg = make_config(workload, size, seed)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)

    # the first set-up byte-compiles smtde and loads the libraries: untimed
    setups = []
    for i in range(SETUP_RUNS + 1):
        result = launch(config, work / "setup", work / f"setup{i}.json", "--setup-only")
        if result is None:
            raise RuntimeError("smtde could not be imported from the checkout")
        setups.append(result["setup_s"])
    del setups[0]

    samples, durations = [], []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        out = work / f"out{attempted}"
        started = time.monotonic()
        result = launch(config, out, work / f"result{attempted}.json",
                        *(["--trace"] if traced else []))
        durations.append(time.monotonic() - started)
        attempted += 1
        if not result:
            problems = ["the sample did not run"]
        elif result["rc"] != 0:
            problems = [f"cli.run returned {result['rc']}"]
        else:
            problems = check.check_run(out, workload, size, cfg)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        failed += bool(problems)
        shutil.rmtree(out, ignore_errors=True)
        if result:
            result["traced"] = traced
            samples.append(result)
            setups.append(result["setup_s"])
        kinds = {s["traced"] for s in samples}
        enough = kinds == {False, True} if trace else bool(kinds)
        if (time.monotonic() + statistics.median(durations) > deadline
                and (enough or attempted >= 4)):
            break
    record = samples[0]["record"] if samples else {}
    record.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                   "workload": workload, "size": size, "seed": seed,
                   "mc_seed": cfg["monte_carlo"]["seed"],
                   "experiment": cfg["experiment"], **cfg["grid"],
                   "n_paths": cfg["monte_carlo"]["n_paths"]})
    return samples, setups, attempted, failed, record


def end_to_end(samples: list[dict], setups: list[float]) -> dict[str, float]:
    metrics = {name: statistics.median(s[name] for s in samples)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def per_layer(samples: list[dict]) -> dict[str, float]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    layers = [spans.layer_metrics(s["trace"]) for s in traced]
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "smtde" / "cli.py").is_file():
        print(f"no smtde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True)
    try:
        samples, setups, attempted, failed, record = measure(
            args.workload, args.size, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    if {s["traced"] for s in samples} != ({False, True} if args.trace else {False}):
        print("benchmark failed: no complete sample of each kind", file=sys.stderr)
        return 2

    print("run_record " + json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = per_layer(samples)
        units = spans.PER_LAYER
        wall = statistics.median(s["wall_s"] for s in samples if s["traced"])
    else:
        metrics = end_to_end(samples, setups)
        units = END_TO_END
        wall = metrics["wall_s"]
    print(f"samples {len(samples)} (traced {sum(s['traced'] for s in samples)}), "
          f"failed_frac {failed / attempted:.4g}")
    print("per-sample wall: " + " ".join(f"{s['wall_s']:.4g}" for s in samples))
    for name, unit in units.items():
        share = (f"  ({metrics[name] / wall:.1%} of wall)"
                 if unit == "s" and name != "setup_s" else "")
        print(f"{name} {metrics[name]:.6g} {unit}{share}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
