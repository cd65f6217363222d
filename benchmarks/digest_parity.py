"""Compare a change's perfbench report digests with those of its base commit.

Usage (from the repository root, next to the change's perfbench logs)::

    python3 benchmarks/digest_parity.py BASE_REF

Every ``perfbench-<workload>.log`` in the current directory names a
workload and holds the change's ``digest`` line.  The script checks
``BASE_REF`` out into a temporary git worktree, runs each of those
workloads there once (``--seed 1 --seconds 1 --trace 0``), and prints a
Markdown table of base and head digests, also appending it to
``$GITHUB_STEP_SUMMARY`` when that is set.  A differing digest is
reported, not treated as an error: router and surrogate fixes change
digests on purpose.  A base without ``perfbench/run.py`` is skipped.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DIGEST = re.compile(r"^digest (\S+) seed \d+: (\S+)$", re.MULTILINE)
LOG_PREFIX = "perfbench-"
BASE_RUN = ("--seed", "1", "--seconds", "1", "--trace", "0")


def digest_in(text: str) -> str | None:
    """The first ``digest`` line's value in a perfbench output, if any."""
    match = DIGEST.search(text)
    return match.group(2) if match else None


def head_digests() -> dict[str, str | None]:
    """Workload name -> digest, from the change's saved perfbench logs."""
    return {
        path.stem[len(LOG_PREFIX) :]: digest_in(path.read_text(encoding="utf-8"))
        for path in sorted(Path(".").glob(f"{LOG_PREFIX}*.log"))
    }


def base_digests(base_ref: str, workloads: list[str]) -> dict[str, str | None] | None:
    """Workload name -> digest at ``base_ref``; ``None`` if it has no perfbench."""
    with tempfile.TemporaryDirectory() as temp_dir:
        tree = Path(temp_dir) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), base_ref], check=True
        )
        try:
            if not (tree / "perfbench" / "run.py").is_file():
                return None
            command = [sys.executable, "perfbench/run.py", *BASE_RUN]
            return {
                workload: digest_in(
                    subprocess.run(
                        [*command, "--workload", workload],
                        cwd=tree,
                        capture_output=True,
                        text=True,
                    ).stdout
                )
                for workload in workloads
            }
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)])


def table(base_ref: str, head: dict, base: dict | None) -> str:
    lines = [f"### perfbench digests (seed 1) against base `{base_ref}`", ""]
    if base is None:
        lines.append("The base commit has no `perfbench/run.py`; nothing to compare.")
        return "\n".join(lines) + "\n"
    lines += ["| workload | base | head | |", "| --- | --- | --- | --- |"]
    for workload, digest in head.items():
        before = base.get(workload)
        verdict = "same" if before is not None and before == digest else "**differs**"
        lines.append(
            f"| {workload} | `{before or 'no digest'}` | `{digest or 'no digest'}` "
            f"| {verdict} |"
        )
    return "\n".join(lines) + "\n"


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_ref = sys.argv[1]
    head = head_digests()
    text = table(base_ref, head, base_digests(base_ref, list(head)))
    print(text, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
