"""Pinned report bytes: the sha256 of (exit code, stdout) of fixed CLI runs.

Each command runs `qshape.cli.main` in-process on builtin description files
that the test writes itself, so the input bytes (and the `input_sha256`
echoed in every report) are fixed.  A digest changes exactly when a report
or an exit code changes by one byte; a refactor that keeps the reports keeps
every digest.  The digests were taken from a run of these same commands on
the code before the window check was regrouped by shift class; the two
`verify` digests were retaken when its reports gained the `ext_certificate`
key, their only change.  The two `gamma` digests of preprojective_A 8, whose
T reaches 28 of its cover's 56 summands where the smaller instances reach
at most 6, were taken on the code that still solved hom(T, P') into the
block-diagonal sum P' of those summands.  The four `gamma` digests of
exterior 4 and truncated_polynomial 10, whose stable Ends compose many
more pairs of representatives than the smaller instances, were taken on
the code that still read hom coordinates through tagged echelons.
"""

import hashlib
import json

import pytest

from qshape.cli import main

FAMILIES = [
    ("truncated_polynomial", 2),
    ("truncated_polynomial", 5),
    ("preprojective_A", 2),
    ("preprojective_A", 3),
    ("preprojective_A", 4),
    ("exterior", 2),
    ("exterior", 3),
]
EXTRA = {
    "gamma": [],
    "ext": ["--range", "3"],
    "tilt": [],
    "window": ["--lo", "-3", "--hi", "3"],
}


def _cases():
    """(name, argv) pairs; a (family, parameter, char) tuple in argv stands
    for a builtin description file."""
    for family, parameter in FAMILIES:
        for char in (0, 32003):
            for command, extra in EXTRA.items():
                yield (f"{command}-{family}-{parameter}-{char}",
                       [command, (family, parameter, char), *extra])
    yield ("basechange-preprojective_A-4-with-preprojective_A-2-0",
           ["basechange", ("preprojective_A", 4, 0), "--with", ("preprojective_A", 2, 0)])
    for family, parameter in (("preprojective_A", 8), ("exterior", 4),
                              ("truncated_polynomial", 10)):
        for char in (0, 32003):
            yield (f"gamma-{family}-{parameter}-{char}",
                   ["gamma", (family, parameter, char)])
    yield "verify-truncated_polynomial-3", ["verify", "truncated_polynomial", "3"]
    yield "verify-preprojective_A-2", ["verify", "preprojective_A", "2"]


CASES = dict(_cases())


def report_digest(argv, tmp_path, capsys):
    """sha256 of the exit code and stdout of one in-process CLI run."""
    resolved = []
    for arg in argv:
        if isinstance(arg, tuple):
            family, parameter, char = arg
            path = tmp_path / f"{family}-{parameter}-{char}.json"
            path.write_text(json.dumps({
                "field": {"char": char},
                "builtin": {"family": family, "parameter": parameter},
            }))
            arg = str(path)
        resolved.append(arg)
    code = main(resolved)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


DIGESTS = {
    "basechange-preprojective_A-4-with-preprojective_A-2-0":
        "3a62a2f3cefc5db4e3c6e8054577c68195ed91d54ddf94e1e7ad07afacad2fca",
    "ext-exterior-2-0":
        "bd8c9c4a697e96d9c03047851081962a5b5765de032c852237308eed0361c1cd",
    "ext-exterior-2-32003":
        "a39be33b69d78387a7cbd9a9976efa9804ff429d83a8c6f630c51ed3df070a6d",
    "ext-exterior-3-0":
        "3fb22f487e8a99b458baa5b9d0f9f51d0b869f6681af0f3f4a2962a04efea8e7",
    "ext-exterior-3-32003":
        "d5a141ed266ce476a3db5fa4bc2f079f6af01a1ddce6c2034bb56d77f013c66e",
    "ext-preprojective_A-2-0":
        "98f241a59e1f9d812b1e001db18e90de8ee3273991fa13ea838ea3648fab7889",
    "ext-preprojective_A-2-32003":
        "8c2ac5dbe004d46ad5256363fb9a1d0fe3de7a4aa58d761c3e3ce6f3a62e4423",
    "ext-preprojective_A-3-0":
        "584e961108f6d9a45a1e153fab5529aea0bf7accbeae5a89890812654f83f35b",
    "ext-preprojective_A-3-32003":
        "0f8fafe8b2a4eae0d4329562cf5d1e636e4f297547c2bb14c7364c1aac28434f",
    "ext-preprojective_A-4-0":
        "bbf0f52e8214bbd968e516ba1dc599c361464c4de6e59a1de4f1664cd8850284",
    "ext-preprojective_A-4-32003":
        "f9b01a09267e0a6976a1056dbf03d19ce38513dc7502eabdb1211105c1786fb3",
    "ext-truncated_polynomial-2-0":
        "ae0817ae9adc5ec206d773f2fbf271a8c69f474eb5efbada607775a4da0aed59",
    "ext-truncated_polynomial-2-32003":
        "ab1acb1a244f7d5318d753e6fd9224138dd20f4bcd85937ac69e662deabb3f3c",
    "ext-truncated_polynomial-5-0":
        "6572926e2e9bbb9290b28187e6df91a269fc986c10d139a0b82b1efe37f93e7a",
    "ext-truncated_polynomial-5-32003":
        "5fa72feadd6ca3963996d40a9e906d091656026ef3751322d3dafa495007d757",
    "gamma-exterior-2-0":
        "7e100765e36fe350b873526e528b22b8409d5221d9ac223cb7667243b329aefd",
    "gamma-exterior-2-32003":
        "39e68365e94b4fd3439fa37c31d13cbebd50241355985412991e17c0b890c7bd",
    "gamma-exterior-3-0":
        "7a668e5f1381feb4b8867899ae7e3412f51f71131726b740d2518e5cdbd8ebb2",
    "gamma-exterior-3-32003":
        "c51f3a80b4bd7920b8afb22e83c3265bc4e0ddedf22b6642629eb0ba8ca2582c",
    "gamma-exterior-4-0":
        "b6ea71b106d1aa99a43fe7a1e5ccef3006a71de8ad47d9df52f4d7e6fae3c766",
    "gamma-exterior-4-32003":
        "8a03128118794693daae1adb6f4a99aca7c27c58b03a96654bd4b2845940aac2",
    "gamma-preprojective_A-2-0":
        "4611f622c25c0b2ef8f000602202e6467725d920214414f6f0a6b322b48967d9",
    "gamma-preprojective_A-2-32003":
        "7d81c08c5534d7e5a2dbc1f8e67399435ae9b0220cd9c8fa2b794e1f6225f3b7",
    "gamma-preprojective_A-3-0":
        "d868c27ea756fbe2a33e9f8f4ca9f784d19cf9f95df4a3665b85c89006fec3ad",
    "gamma-preprojective_A-3-32003":
        "664ad8076f6599aa8b11febe42034b538fa615c70324cd02650e1f3c7e90ca54",
    "gamma-preprojective_A-4-0":
        "bdb457bf125933491a494a30b3e9fb018acd8ea27b9740236713406f4fd9e44b",
    "gamma-preprojective_A-4-32003":
        "792ecb1034fdf2fdf6986bdc4e8dd8ca7f6faa3a24ab056f2c8ca3226ff67be5",
    "gamma-preprojective_A-8-0":
        "13ebe1d7addbf074481a5b5f476b603c4b3d519ebe1fcc0aa7cea8dce3890f64",
    "gamma-preprojective_A-8-32003":
        "27a616360a82f1667c9c8060c19cf92844eaf3bf37d2a04cd216c26bec0a069d",
    "gamma-truncated_polynomial-2-0":
        "792a68108829014a1b38131e8734b54a440745d91fd2d87f186e00d42a37736e",
    "gamma-truncated_polynomial-2-32003":
        "1e17110c499579e7a222726dddf5a2daede891bf8212b7180f6c3077b6ad0e74",
    "gamma-truncated_polynomial-10-0":
        "1627af9002cbccf6c7da0a6bd5f0ea89a22cd3475b80401ab06b6e9aac7640ed",
    "gamma-truncated_polynomial-10-32003":
        "1bfcb99d5bb37afea98346d8f424c36bdc83ceb673b68e38637b343f793a26ef",
    "gamma-truncated_polynomial-5-0":
        "e32f30a8eed5c0caf34089731129c4f86584811482eda868ed878d3db06590c6",
    "gamma-truncated_polynomial-5-32003":
        "dd576bd8856597e87513207645c10b0470c03b05d3d79ee269e6d3d1c5bacaee",
    "tilt-exterior-2-0":
        "88fad7b6f68b4cd76be32af6ec4691505ba5a3646242fe37b91c4680348bc06d",
    "tilt-exterior-2-32003":
        "b3a88721510036deeb7b32a464211aa82edbcd30b85238bcda9fff1d183b03ef",
    "tilt-exterior-3-0":
        "a4ca6097414fc9b4b2c637694d1223aa89084e0935425cdb513992f9e46d80f2",
    "tilt-exterior-3-32003":
        "98c8a4df70c4c7e0652897e354b95b6b1666cb450a86e1a5f00df698291acc2f",
    "tilt-preprojective_A-2-0":
        "e6395b68ad4a15c19a9133c909cbd8672e3a397d9e5c28870f17ab93e2974759",
    "tilt-preprojective_A-2-32003":
        "a4f082bb7fdf8030675285913c423fae98a4a0275a9ed34d797d591b9e3cf0e0",
    "tilt-preprojective_A-3-0":
        "674d588ddc3f553b181b3343ffdad2a7dda46f7a0aaff6690711aacbc9794e73",
    "tilt-preprojective_A-3-32003":
        "e7b15f651c16023986c5911ec37ed597a9b0acf65d2dd6ea95d20129595a7d78",
    "tilt-preprojective_A-4-0":
        "286ff58b53e00101b69c6ae54ed4d5c66d786d816408e1358a3de7678b0eb8c4",
    "tilt-preprojective_A-4-32003":
        "2addfe7d3c25fe5b40fd88c6780cfe665ee1d7f40746add320e7684332d3de83",
    "tilt-truncated_polynomial-2-0":
        "67292ca0ff1e327f29b522b453445b0257bfe7033c001dda5be181be2f819727",
    "tilt-truncated_polynomial-2-32003":
        "0036fe627680681bc5420784726e685515a629fafdfd2b649ae2479b2519c576",
    "tilt-truncated_polynomial-5-0":
        "aa427b2f5390e882019941f56ee4db0bd9927c5fc164fc86af81ab577f550413",
    "tilt-truncated_polynomial-5-32003":
        "a9b1eceffd75f6d23d66751f568eb62339190f38cfa5a723a0529e169076ee07",
    "verify-preprojective_A-2":
        "dc549f7a79b400a35e7126c02e03e55baba6371d6883979fa847df98bf518025",
    "verify-truncated_polynomial-3":
        "2703b596611564d7a35d5038f99be21ec8197f281209742c028a50850a371924",
    "window-exterior-2-0":
        "46886e579fbea02ba47df8b3b49dba49cca83a402840019ba55abe34c3d655aa",
    "window-exterior-2-32003":
        "b50571e33cd4771db3c05d268217992fd763d26b39405bc34b48e8dec7208288",
    "window-exterior-3-0":
        "04f56166f4ddcf38df47ed3e9bfed0442503f4798e0ce55343a4ece060be801f",
    "window-exterior-3-32003":
        "ede29c44ef66823fd6a5b947a9bfa761765ff0005a1f3a4c7a0ebaa285e93ffd",
    "window-preprojective_A-2-0":
        "1b37df72549014978b7a55c779f4da9ffefb67813eb3c9473c2f8ac4f14a336f",
    "window-preprojective_A-2-32003":
        "4a126a1fe99f0db3d20278829f8655141f00f03841fd57e859043f58387410d8",
    "window-preprojective_A-3-0":
        "4a5ae893d2b6e3f959f763f6ef03265d94f0cf1c4c7c91239a3e89a1298924c6",
    "window-preprojective_A-3-32003":
        "7e8b3824d73c8155df281220ed9b9816e119f2c2f8e10dc00c112109be84eece",
    "window-preprojective_A-4-0":
        "6d1d7f8d5888986d703d8b0b23c7b7e553b4b96bacea4225196a8fa9cca529a5",
    "window-preprojective_A-4-32003":
        "ba455c83ecc8ff6b06f354fc2bdc3e42f3ce7c74dece05364e55458e74a228d8",
    "window-truncated_polynomial-2-0":
        "656d08c4b6955b5b9640de72d968fcde8de7132b8b95a66720782098c0937d42",
    "window-truncated_polynomial-2-32003":
        "43b5a4a90fe0370388de024f6c1d3954fc54167aa37444c2363898b3a5f3158a",
    "window-truncated_polynomial-5-0":
        "a33269448d2d02c5ba9cef7203d226b5f936a798db52b589a7d8d6f1476db772",
    "window-truncated_polynomial-5-32003":
        "e8de63f41a87865b1d14956935da5892edc1d5ce0842a54290033b5634ef2717",
}


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QSHAPE_SEED", raising=False)
    assert report_digest(CASES[name], tmp_path, capsys) == DIGESTS[name]
