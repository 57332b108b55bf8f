"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py            # run the self-test (about 15 seconds)
    python3 perfbench/selftest.py --record   # rewrite reference.json from the program

The self-test runs every workload at tiny size, traced and untraced, through
run.py exactly as the benchmark is run, and requires a correct result with
exactly the metrics BENCHMARK.json lists.  It then feeds the harness a
non-zero exit, a corrupted CSV and a wrong row, and requires each to be
counted as a failed invocation.  `--tamper MODE <pbmf args>` is the faulty
program it uses for that: it runs the pbmf CLI and then spoils the result.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TAMPER_MODES = ("exit", "corrupt", "wrong_row")


def tamper(mode: str, pbmf_argv: list[str]) -> int:
    from pbmf.cli import main as pbmf_main

    code = pbmf_main(pbmf_argv)
    output = Path(pbmf_argv[pbmf_argv.index("--output") + 1])
    if mode == "exit":
        return 3
    if mode == "corrupt":
        output.write_bytes(b"\x00\xff garbage\n" + output.read_bytes()[:40])
    elif mode == "wrong_row":
        lines = output.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("cosine_mf,"))
        cells = lines[row].split(",")
        cells[6] = repr(float(cells[6]) * 1.5)  # the mae column
        lines[row] = ",".join(cells)
        output.write_text("".join(lines), encoding="utf-8")
    return code


def record() -> None:
    """Store each workload's reference-seed table, at both sizes, as the new reference."""
    tables: dict[str, dict[str, list[list[str]]]] = {}
    for size in ("full", "tiny"):
        for wl in run.WORKLOADS.values():
            work = run.WORK / "reference" / wl.name
            inputs = run.make_inputs(wl, size, run.REFERENCE_SEED, run.fresh_dir(work / "inputs"))
            _, reason = run.invoke(wl, inputs, run.REFERENCE_SEED, work / "out", run.PBMF, None)
            if reason:
                raise SystemExit(f"{wl.name} {size}: {reason}")
            tables.setdefault(size, {})[wl.name] = run._read_table(wl.outputs(work / "out")[-1])
    run.REFERENCE_FILE.write_text(json.dumps(tables, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE_FILE}")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), spec["workloads"]
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        assert listed == units, (key, set(listed) ^ set(units))


def check_tiny_runs() -> None:
    for name in run.WORKLOADS:
        for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                    "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, (argv, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == units
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            print(f"ok  {name} tiny trace={trace} attempted={result['attempted']}")


def check_failures_counted() -> None:
    wl = run.WORKLOADS["benchmark_zipf50k"]
    inputs = run.make_inputs(wl, "tiny", run.REFERENCE_SEED,
                             run.fresh_dir(run.WORK / "selftest" / "inputs"))
    for mode in TAMPER_MODES:
        tally = run.Tally()
        program = [sys.executable, __file__, "--tamper", mode]
        invocations = run.Invocations(wl, inputs, run.REFERENCE_SEED, tally, program)
        invocations.once()
        assert (tally.attempted, len(tally.failures), invocations.walls) == (1, 1, []), (
            mode, tally.failures)
        print(f"ok  {mode} counted as a failure: {tally.failures[0][:100]}")
    reference = run.load_reference()["tiny"][wl.name]
    drifted = [row[:] for row in reference]
    drifted[1][6] = repr(float(drifted[1][6]) * (1 + run.REL_TOL / 10))
    assert run.compare_reference(drifted, reference) is None
    drifted[1][6] = repr(float(drifted[1][6]) * (1 + run.REL_TOL * 10))
    assert run.compare_reference(drifted, reference) is not None
    print("ok  reference tolerance accepts drift below REL_TOL and rejects drift above it")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--tamper"]:
        return tamper(argv[1], argv[2:])
    if argv == ["--record"]:
        record()
        return 0
    check_benchmark_json()
    check_failures_counted()
    check_tiny_runs()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
