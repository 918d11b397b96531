"""Pinned report bytes of a quiver input whose tilting module mixes
projective and non-projective vertex summands in one shift.

The quiver 1 -a-> 2 -b-> 3 -c-> 1 has arrows in degrees 0, 1 and 2 and
kills every path of length 2, so e_1 Lambda, e_2 Lambda and e_3 Lambda
have top degrees 2, 0 and 1.  T_1 then holds the projective block of
vertex 2 beside the truncated blocks of vertices 1 and 3.  The digests,
sha256 of (exit code, stdout) as in `test_report_digests`, were taken on
the code that still built T by truncating the shifted regular module, T'
and a cover's P by generic shifts, truncations and direct sums of their
summand modules.
"""

import hashlib
import json

import pytest

from qshape.cli import main

QUIVER = {
    "vertices": ["1", "2", "3"],
    "arrows": [{"name": "a", "from": "1", "to": "2", "degree": 0},
               {"name": "b", "from": "2", "to": "3", "degree": 1},
               {"name": "c", "from": "3", "to": "1", "degree": 2}],
    "relations": [[{"coeff": 1, "path": ["b", "a"]}],
                  [{"coeff": 1, "path": ["c", "b"]}],
                  [{"coeff": 1, "path": ["a", "c"]}]],
    "nilpotency_bound": 2,
}
COMMANDS = {
    "tilt": [],
    "ext": ["--range", "3"],
    "gamma": [],
    "basechange": ["--with", None],
}

DIGESTS = {
    "basechange-0":
        "7ebda8b31b856e7d9ed6c3dd9828590f0ead31eaa98b1b81c4ee5d960ac6f56b",
    "basechange-32003":
        "1ab181f51e4c3f16e660b9067c795bea489e630722409b9cd94af80359571e3a",
    "ext-0":
        "ebac0f35a271258a0469b9b46d229265bc08e814e8f54f79caa8bdf1ff045983",
    "ext-32003":
        "4c46324dcbc8f1fc3fafb44a9afb994ff0ea0e1bdca3d43b684f0e13d836fec8",
    "gamma-0":
        "88faad16eabe3181c3a981b0a3a025d46dd92f95eac3778f01699622723f7a70",
    "gamma-32003":
        "1c549c60741c008347c8a2f6bb19329ecd8988d533ecae8b48ae590c2a36233d",
    "tilt-0":
        "a6c745d15a653b562ba8205426386a2438c2be3e96d40b54adb11c4e2254b225",
    "tilt-32003":
        "bdfacdf6a12c0c0aa34ed07df655b98b82e90906f8da76292e06799aafad1705",
}


def _digest(command, char, tmp_path, capsys):
    path = tmp_path / f"mixed-{char}.json"
    path.write_text(json.dumps({"field": {"char": char}, "quiver": QUIVER}))
    extra = [str(path) if x is None else x for x in COMMANDS[command]]
    code = main([command, str(path), *extra])
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(f"{c}-{char}" for c in COMMANDS for char in (0, 32003))


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_report_bytes_are_pinned(command, char, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QSHAPE_SEED", raising=False)
    assert _digest(command, char, tmp_path, capsys) == DIGESTS[f"{command}-{char}"]
