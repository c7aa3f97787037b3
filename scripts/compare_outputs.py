"""Compare the CLI outputs of the working tree with those of a revision.

    python3 scripts/compare_outputs.py REV

Checks REV out in a temporary git worktree and runs, on both trees, S1-S4
at their defaults and S3 at --h 6e-3, each with --dump-fields.  Every run
writes its report, its stdout, its stderr, its exit code and its CSV
dumps under one directory, with the same relative paths on both trees.
Exits 0 when the two output trees are byte-identical, and 1 naming each
file that differs or exists on one side only.  Under a report.json that
differs it also prints whether the two reports' check names, kinds and
verdicts are equal, the largest relative move of a check value, and each
key outside the checks whose value differs, with both values.  The runs
go one after another, each in a fresh interpreter.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (output directory, `coversmooth run` arguments besides --out and --dump-fields)
RUNS = (
    ("S1", ("--scenario", "S1")),
    ("S2", ("--scenario", "S2")),
    ("S3", ("--scenario", "S3")),
    ("S4", ("--scenario", "S4")),
    ("S3_h6e-3", ("--scenario", "S3", "--h", "6e-3")),
)


def _git(*args: str) -> str:
    return subprocess.run(("git", "-C", str(ROOT)) + args, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_tree(tree: Path, out: Path) -> None:
    """Run every entry of RUNS on the package source under tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    for name, args in RUNS:
        d = out / name
        d.mkdir(parents=True)
        proc = subprocess.run(
            (sys.executable, "-m", "coversmooth", "run", *args,
             "--out", "report.json", "--dump-fields", "dumps"),
            cwd=d, env=env, capture_output=True)
        (d / "stdout").write_bytes(proc.stdout)
        (d / "stderr").write_bytes(proc.stderr)
        (d / "exit_code").write_text(f"{proc.returncode}\n")


def differing_files(a: Path, b: Path) -> list:
    """Relative paths of the files that differ between the trees a and b,
    or that exist in only one of them."""
    def files(top: Path) -> set:
        return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    differ = fa ^ fb
    differ.update(p for p in fa & fb
                  if not filecmp.cmp(a / p, b / p, shallow=False))
    return sorted(map(str, differ))


def _relative_move(x: float, y: float) -> float:
    """|x - y| over the larger magnitude: 0 for equal values (NaN equals
    NaN here), inf where only one side is finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def report_moves(a: Path, b: Path) -> str:
    """One line on how the checks of the report files a and b compare:
    whether their names, kinds and verdicts are equal, and the largest
    relative move of a value among the checks both name."""
    ca, cb = (json.loads(p.read_text())["checks"] for p in (a, b))
    same = ([(c["name"], c["kind"], c["pass"]) for c in ca]
            == [(c["name"], c["kind"], c["pass"]) for c in cb])
    values = {c["name"]: c["value"] for c in cb}
    moves = [(_relative_move(c["value"], values[c["name"]]), c["name"])
             for c in ca if c["name"] in values]
    verdicts = ("check names, kinds and verdicts equal" if same
                else "check names, kinds or verdicts DIFFER")
    if not moves:
        return f"{verdicts}; no check in common"
    move, name = max(moves)
    return f"{verdicts}; largest relative value move {move:.3g} ({name})"


def _leaves(node, path: str = "") -> dict:
    """A JSON tree's leaves by dotted key path; a list is one leaf."""
    if not isinstance(node, dict):
        return {path: node}
    out = {}
    for key, value in node.items():
        out.update(_leaves(value, f"{path}.{key}" if path else key))
    return out


def report_key_moves(a: Path, b: Path) -> str:
    """One line naming each key outside "checks" whose value differs
    between the report files a and b, as key: a's value -> b's value
    ("absent" where a side lacks the key); empty when none differs."""
    la, lb = ({k: v for k, v in _leaves(json.loads(p.read_text())).items()
               if k.split(".")[0] != "checks"} for p in (a, b))
    moves = [f"{key}: {json.dumps(la[key]) if key in la else 'absent'} -> "
             f"{json.dumps(lb[key]) if key in lb else 'absent'}"
             for key in sorted(la.keys() | lb.keys())
             if key not in la or key not in lb or la[key] != lb[key]]
    return "; ".join(moves)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = _git("rev-parse", "--verify", argv[0] + "^{commit}")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        _git("worktree", "add", "--detach", str(base), rev)
        try:
            run_tree(base, tmp / "out_base")
        finally:
            _git("worktree", "remove", "--force", str(base))
        run_tree(ROOT, tmp / "out_head")
        differ = differing_files(tmp / "out_base", tmp / "out_head")
        for path in differ:
            print(f"differs: {path}")
            pa, pb = tmp / "out_base" / path, tmp / "out_head" / path
            if pa.name == "report.json" and pa.is_file() and pb.is_file():
                print(f"  {report_moves(pa, pb)}")
                keys = report_key_moves(pa, pb)
                if keys:
                    print(f"  other keys differ: {keys}")
    if differ:
        print(f"{len(differ)} output file(s) differ from {rev}", file=sys.stderr)
        return 1
    print(f"all outputs identical to {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
