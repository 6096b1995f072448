"""CI's run checks, one row of ``ROWS`` each: bounded memory, loud failures,
no escaped numpy warning and the same bytes for any thread count.
``python .github/ci_checks.py ROW [ROW ...]`` runs the named rows on the
package in ``src`` and exits 1 if any fails. In one call a config variant runs
once per thread count; a run under ``-W error::RuntimeWarning`` also serves a
row without the flag."""

import csv
import json
import os
import pathlib
import sys
import tempfile
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
# check is one of: rss (peak RSS, MB), rss-over-base (peak RSS over BASE's,
# MB), exit (exit code and a text of stderr), converged (the flags of an
# ml-eval run), threads (files equal at threads 1 and at ``threads``)
Row = namedtuple("Row", "config overrides threads werror check limit reason")
BASE = Row("ml_eval_sec6", {}, 1, False, "rss", None, "numpy and the package")
RUNS = {}
TMP = None


def write_variant(config, overrides, path):
    """configs/<config>.json with each override ("grid.n_steps") set."""
    cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        cfg[section][key] = value
    path.write_text(json.dumps(cfg))
    return path


def run(row, threads=None, finish=True):
    """``python -m smtde run`` of the row's variant in a child: its exit code,
    stderr, own peak RSS in MB (``os.wait4``) and output directory.
    ChildProcessError if it is to finish and exits nonzero."""
    threads = threads or row.threads
    key = json.dumps([row.config, row.overrides, threads])
    done = RUNS.get((key, row.werror)) or RUNS.get((key, True))
    if done is None:
        tmp = pathlib.Path(tempfile.mkdtemp(dir=TMP))
        argv = [sys.executable, *["-W", "error::RuntimeWarning"] * row.werror, "-m",
                "smtde", "run", "--config",
                str(write_variant(row.config, row.overrides, tmp / "config.json")),
                "--out", str(tmp / "out"), "--threads", str(threads)]
        pid = os.posix_spawn(
            sys.executable, argv, {**os.environ, "PYTHONPATH": str(ROOT / "src")},
            file_actions=[(os.POSIX_SPAWN_OPEN, 2, str(tmp / "stderr"),
                           os.O_WRONLY | os.O_CREAT, 0o644)])
        _, status, usage = os.wait4(pid, 0)
        done = RUNS[key, row.werror] = (os.waitstatus_to_exitcode(status),
                                        (tmp / "stderr").read_text().strip(),
                                        usage.ru_maxrss / 1024, tmp / "out")
    if done[0] and finish:
        raise ChildProcessError(f"{row.config} exits {done[0]}: {done[1]}")
    return done


def same_files(one, two, names):
    """The names among ``names`` whose bytes differ between two output dirs."""
    return [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]


def check(row):
    """(passed, what the run showed) for one row."""
    if row.check == "exit":
        code, stderr, *_ = run(row, finish=False)
        return (code == row.limit[0] and row.limit[1] in stderr,
                f"exit {code}: {stderr or 'no stderr'}")
    if row.check == "threads":
        differ = same_files(run(row, 1)[3], run(row)[3], row.limit)
        return not differ, f"threads 1 and {row.threads} differ in {differ or 'none'}"
    *_, peak_mb, out = run(row)
    if row.check == "converged":
        with open(out / "results.csv") as fh:
            flags = [float(r["value"]) for r in csv.DictReader(fh)
                     if r["quantity"] == "converged"]
        return flags == row.limit, f"converged {flags}"
    if row.check == "rss":
        return peak_mb <= row.limit, f"peak RSS {peak_mb:.1f} MB"
    base = run(BASE)[2]
    return peak_mb - base <= row.limit, (f"peak RSS {peak_mb:.1f} MB, {peak_mb - base:.1f}"
                                         f" MB over ml_eval_sec6's {base:.1f} MB")


DECAYING = {"problem.a_mat": [[-3.0, -0.6], [0.0, -3.0]],
            "problem.b_mat": [[-3.0, 0.0], [-0.9, -3.0]],
            "grid.horizon": 100.0, "grid.n_steps": 1000, "monte_carlo.n_paths": 64}
# decaying kernels on which the mild basis would cost more than exact pushes
# (``_basis_limit``): every far push is exact
DECLINED = {"problem.a_mat": [[-1.0, -0.2], [0.0, -1.0]],
            "problem.b_mat": [[-1.0, 0.0], [-0.3, -1.0]],
            "grid.horizon": 5.0, "grid.n_steps": 1000}
# 16 chunks whose grid crosses two edges of the NOISE_SLAB = 256-step slabs
SLABS = {"grid.n_steps": 600, "monte_carlo.n_paths": 4096}
ROWS = {
    "separation-rss": Row("separation_sec6", {}, 1, False, "rss", 170,
                          "a slab of increments per chunk: ~127 (210 drawn up front)"),
    "separation-1e4-rss": Row(
        "separation_sec6", {"grid.n_steps": 10000, "monte_carlo.n_paths": 500}, 1, False, "rss",
        110, "only the squared distances grow with N: ~94 (~134 with whole-grid noise)"),
    "mild-rss": Row("mild_sec6", {}, 1, False, "rss-over-base", 33,
                    "chunks stream into |X|^2: ~19 (~42 with every path stored)"),
    "picard-1500-rss": Row("picard_sec6", {"grid.n_steps": 1500}, 1, False, "rss-over-base",
                           60, "no iterate stored, a chunk's 4 iterates' pending rows and squared "
                           "differences, one slab of increments: ~44 (~46 with a chunk's whole "
                           "increments, ~66 with two iterates stored)"),
    "continuity-1000-rss": Row(
        "continuity_sec6", {"grid.n_steps": 1000}, 1, False, "rss-over-base", 22,
        "base and shifted runs stacked, a chunk's squared distances, one slab of increments: "
        "~16.6 (~18 with a chunk's whole increments, ~101 with the base and a shifted "
        "ensemble stored)"),
    "mild-1000-rss": Row("mild_sec6", {"grid.n_steps": 1000}, 1, False, "rss-over-base", 70,
                         "a block of history per chunk: ~58 (~78 whole 2 * dim history)"),
    "mild-declined-rss": Row("mild_sec6", DECLINED, 1, True, "rss-over-base", 78,
                             "basis declined, every far push exact: ~58"),
    "ml-eval-far": Row("ml_eval_sec6", {"params.t_grid": [0, 0.5, 20, 60, 100, 1e6]}, 1, True,
                       "converged", [1, 1, 1, 0, 0, 0], "converges, runs out, overflows"),
    "overflow-exits-2": Row("separation_sec6", DECAYING, 1, True, "exit", (2, "not finite"),
                            "explicit em at h = 0.1 on a decaying pair overflows"),
    **{p.stem: Row(p.stem, {}, 1, True, "exit", (0, ""), "no numpy warning escapes")
       for p in sorted((ROOT / "configs").glob("*.json"))},
    "threads-separation": Row("separation_sec6", {}, 2, False, "threads",
                              ["results.csv", "report.json"], "20 chunks, bootstrap CI"),
    "threads-mild": Row("mild_sec6", {}, 2, False, "threads", ["results.csv"],
                        "4 chunks of the mild kernel scheme"),
    "threads-mild-1000": Row("mild_sec6", {"grid.n_steps": 1000}, 2, False, "threads",
                             ["results.csv"], "most pushes go through the shared basis"),
    "threads-mild-declined": Row("mild_sec6", DECLINED, 2, False, "threads", ["results.csv"],
                                 "basis declined, every far push exact"),
    "threads-continuity-4096": Row("continuity_sec6", {"monte_carlo.n_paths": 4096}, 2,
                                   False, "threads", ["results.csv"], "16 chunks of 4 stacked copies"),
    "threads-picard-4096": Row("picard_sec6", {"monte_carlo.n_paths": 4096}, 2, False,
                               "threads", ["results.csv"], "16 chunks of 4 stacked iterates"),
    "threads-continuity-600": Row("continuity_sec6", SLABS, 2, False, "threads",
                                  ["results.csv"], "stacked copies across slab edges"),
    "threads-picard-600": Row("picard_sec6", SLABS, 2, False, "threads", ["results.csv"],
                              "stacked iterates across slab edges"),
}


def main(names):
    global TMP
    unknown = [name for name in names if name not in ROWS]
    if not names or unknown:
        sys.exit(f"usage: ci_checks.py ROW ...; unknown {unknown}; rows: {' '.join(ROWS)}")
    failed = 0
    with tempfile.TemporaryDirectory() as TMP:
        for name in names:
            row = ROWS[name]
            try:
                ok, seen = check(row)
            except ChildProcessError as exc:
                ok, seen = False, str(exc)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {seen}; limit {row.limit} "
                  f"({row.reason})", flush=True)
            failed += not ok
    sys.exit(failed > 0)


if __name__ == "__main__":
    main(sys.argv[1:])
