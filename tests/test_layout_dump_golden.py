"""Golden digests of the `layout-dump` burst tables.

Each case runs `trainsim layout-dump` under every layout and hashes the
`layout_<layout>.csv` it writes: alexnet_conv at batch 1 on its reference
plan, and cifar6 at batch 2 on the plan `sched.schedule` picks for zcu102,
written to a plan file.  The digests in golden/layout_dump.json were
captured while the dump still merged Python run tuples; regenerate them
only for a change that is meant to move a dump:

    python tests/test_layout_dump_golden.py > tests/golden/layout_dump.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # run as a script: use the package in this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trainsim import layout  # noqa: E402
from trainsim.cli import main  # noqa: E402
from trainsim.config import load_device, load_network, plan_to_dict  # noqa: E402
from trainsim.layout import LayoutKind  # noqa: E402
from trainsim.sched import schedule  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "layout_dump.json"


def cases(tmp: Path) -> list[tuple[str, list[str]]]:
    """(case id, layout-dump arguments) for every golden dump."""
    net = load_network("cifar6", 2)
    plan, _ = schedule(net, load_device("zcu102"), 2)
    plan_file = tmp / "cifar6-plan.json"
    plan_file.write_text(json.dumps(plan_to_dict(plan)))
    return [("alexnet_conv-b1", ["--net", "alexnet_conv", "--batch", "1",
                                 "--plan", "alexnet_conv_zcu102"]),
            ("cifar6-b2", ["--net", "cifar6", "--batch", "2", "--plan", str(plan_file)])]


def dump_digests(tmp: Path) -> dict[str, str]:
    out = {}
    for case, argv in cases(tmp):
        for kind in LayoutKind.ALL:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["layout-dump", *argv, "--layout", kind, "--out", str(tmp / case)])
            assert rc == 0, (case, kind)
            data = (tmp / case / f"layout_{kind}.csv").read_bytes()
            out[f"{case}/{kind}"] = hashlib.sha256(data).hexdigest()
    return out


def test_layout_dumps_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = dump_digests(tmp_path)
    assert sorted(got) == sorted(golden)
    moved = sorted(k for k in got if got[k] != golden[k])
    assert not moved, f"{len(moved)} dumps changed: {moved}"


def test_layout_dumps_do_not_depend_on_the_slice_budget(tmp_path):
    # at 64 rows a slice the passes are cut into many slices, and bursts
    # run on across the cuts: the dumps are still the golden bytes
    golden = json.loads(GOLDEN.read_text())
    with mock.patch.object(layout, "SLICE_ROWS", 64):
        assert dump_digests(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(dump_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
