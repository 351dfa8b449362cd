"""Pin the text and CSV output of each command: exit code and stdout sha256.

`perfbench/refs.json` pins only `--format json`.  These references were
recorded before the integer alcove walk replaced the matrix BFS behind
`growth`, so they also show that the walk prints the same bytes.  The orbit
entries cover every odd prime field the command admits, recorded while the
inversion closure was still rerun for each constant c.  The suite entries
were recorded while the suite's witness rows still held {num, den} dicts;
neither format prints a row or the number of sampled pairs.
"""

import hashlib

import pytest

from buildingkit import cli, suite

TEXT_AND_CSV_REFS = {
    "growth --family A --rank 2 --K 8 --format text":
        (0, "da9ae854b04050d9f5cbc25d5988415af826717b6d7af91952ead3a530378b94"),
    "growth --family A --rank 2 --K 8 --format csv":
        (0, "b7b9e7b60914d6bc398bddc4e28fcefa4646ebc516f83a10c47d21ecfc7403fc"),
    "growth --family G --rank 2 --K 10 --format text":
        (0, "1c44290022ccb99fe38c1a8a5c6d733487c0cbfb99e7a6acb35f40eef4581d41"),
    "growth --family G --rank 2 --K 10 --format csv":
        (0, "ea34f153a1f357c1bf6893183f22b1f1a472472b293b7f16cbd3a6f57416e2d5"),
    "growth --family D --rank 4 --K 5 --format text":
        (0, "eb890814a3dbd573c715b68f5af858f2ff00f080d7a3c36c51e8d67b8ba53b9a"),
    "growth --family D --rank 4 --K 5 --format csv":
        (0, "0b6a2461cd50aa58352be6620f339e71308939eb8b9c6dcf1eeb1f7fa073e49e"),
    "period --family A --rank 3 --qF 5 --K 10 --format text":
        (0, "93dfb20e7133195bc3e2e5713238475bade544eae6827cb28f22ad4e54e8b784"),
    "period --family A --rank 3 --qF 5 --K 10 --format csv":
        (0, "96c4be7d34833b3917ea86c024af33a48c8595b7fce123bfed4bf8c55455cf86"),
    "period --family G --rank 2 --qF 7 --K 14 --format text":
        (0, "c8054e2598ad366b941d2f0ce43327a4182354f1e07bc5aba6c1e6f3d94f710f"),
    "period --family G --rank 2 --qF 7 --K 14 --format csv":
        (0, "702de7a829ed18271e5e829ea46aaa4f59f6f9e4ac28c343d765bc66e8e3c5c6"),
    "period --family B --rank 4 --qF 3 --K 8 --format text":
        (0, "31e9c56778edd17d2e22205afaa2e75e7b89b14e12a9351cd8c900718f00c3f0"),
    "period --family B --rank 4 --qF 3 --K 8 --format csv":
        (0, "bc950066ecc97ab610ed67adef58b5acb6b7d6bc42dcac16bcedfe4441afa801"),
    "tree-verify --qF 2 --depth 3 --format text":
        (0, "bccf7c36bc7554a0185aa2673b6d40b4f88864e0ea9f0d0802e8b6e0b626bf30"),
    "tree-verify --qF 2 --depth 3 --format csv":
        (0, "14679cd12e030f855dd8f72b7c1602b6ce0d64dc80daedee39105118895e6417"),
    "tree-verify --qF 3 --depth 2 --format text":
        (0, "7f83b50ad2e187377c8cb7cefded7c712977135c6b12c4d4ea95eabe07449a7b"),
    "tree-verify --qF 3 --depth 2 --format csv":
        (0, "3a47242ff2fc0a25216275b95430f74ff8d03b1fe28eef9b6d16bd3c9dc0af7b"),
    "tree-period --qF 2 --depth 4 --format text":
        (0, "594ebfcb6c6d7515d460622facbabc6d7ecc729452ae3abd2bb864ba364fca59"),
    "tree-period --qF 2 --depth 4 --format csv":
        (0, "0a68a807b973e0c1150da2c6e8fae6c947e8c05fe9d3c8db2de5ebdd05c19377"),
    "tree-period --qF 5 --depth 2 --format text":
        (0, "a2c02b4d33a5260fb47350f11d2435f60c2961c7cafdb4bc4a34e6e5bd90d085"),
    "tree-period --qF 5 --depth 2 --format csv":
        (0, "a061d3ba161017bd56711f9613b82f0d85855e517e8f7fc82e473da3f5ff07e9"),
    "invariant --qF 2 --depth 3 --format text":
        (0, "414dd354dfd830e6b32bff93721bfa6aa05b6cb63e2bc665fc4666b11f746ded"),
    "invariant --qF 2 --depth 3 --format csv":
        (0, "671ec46f08bc18bb5ddcc1e45bb1760f1151b7c7564f719a0a67f5cf285c89d8"),
    "invariant --qF 3 --depth 2 --format text":
        (0, "fce9aea77ba1e043130fe7fc27ba52e8eb475e715b526ab57a7883ff3cf6c065"),
    "invariant --qF 3 --depth 2 --format csv":
        (0, "7e1c17259a84590943e2aa5e5b8ceba5e9cd6c7e8f3f51d5e3eb8eb3f48538c6"),
    "orbit --p 2 --n 2 --format text":
        (0, "ae3121ab266e2865ac68e05d1eee0a7a270ffbc23d3292b8c0eca208917bfe07"),
    "orbit --p 2 --n 2 --format csv":
        (0, "98f7d609e625aade870dd289436dd06782bc63e9b4c11afc11d0e6f436cf2d7b"),
    "orbit --p 5 --n 1 --format text":
        (0, "1caa8c4ccd7c91b2bd0883f64ee203956470c8854fb758568deaeb9dfdb8c81c"),
    "orbit --p 5 --n 1 --format csv":
        (0, "463da70d0e164a84d30cb0c49d510ec11a0581c26c8617e149e38448166e0541"),
    "orbit --p 3 --n 2 --format text":
        (0, "2d60b9218cfb96541024e39026e66aebe3923c7c7cc79ca10b77ec31dd93c54c"),
    "orbit --p 3 --n 2 --format csv":
        (0, "d8778aeb4ff09fb97be0807d06f61de9fbc51e7649ef48176dabb0e1e304edf6"),
    "orbit --p 3 --n 1 --format text":
        (0, "ee46bd6cb6925bf651453fd0e26c8dbc10a923ba3cc18e4fcf0ba417c0cf6b0e"),
    "orbit --p 3 --n 1 --format csv":
        (0, "11c82b2e20fb648e737c232ff0328ea994fb6984df1e996fc54c9544df690316"),
    "orbit --p 7 --n 1 --format text":
        (0, "195621544fcabdb1a27443788e3bcc8d98638aa9dc1dec812f37c3b363da2da7"),
    "orbit --p 7 --n 1 --format csv":
        (0, "901a881ec95b682e5d826c9f00864691b190e3fb18bbeacaa82dc0f487da1d10"),
    "orbit --p 11 --n 1 --format text":
        (0, "9b07f526042b70fea10b1450e55404247ea798c993fd08c99f6ee9f708e86bcb"),
    "orbit --p 11 --n 1 --format csv":
        (0, "4e5276a2e152f07ac72e8db9f09b1d04347a5aa0fc8a265caf41ae2c5f9b3060"),
    "orbit --p 13 --n 1 --format text":
        (0, "2bd0dec29b2ea04af56ab5415511b8472c2ba3dd44dfa9c5932f2dfae2e51aa0"),
    "orbit --p 13 --n 1 --format csv":
        (0, "ca07b79c961edae838c30180fc886ad1ea03a0e330e147ba6c330c4e6f4a2ffa"),
    "suite --format text":
        (0, "6c8d71348babdeceac022fb5575601c1db307e44cf0a81cc292e094d0db2b877"),
    "suite --format csv":
        (0, "3fb43f0b7612a611d64ae295d82027d1c644fbeb48413365813d3dd72b98a6d7"),
}


@pytest.mark.parametrize("key", sorted(TEXT_AND_CSV_REFS))
def test_text_and_csv_match_the_refs(key, capsys, monkeypatch):
    # no pair count is printed, so the suite samples none
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 0)
    code = cli.main(key.split(" "))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == TEXT_AND_CSV_REFS[key]


def test_every_command_is_pinned_in_both_formats():
    pinned = {(key.split(" ")[0], key.split(" ")[-1]) for key in TEXT_AND_CSV_REFS}
    commands = ("growth", "period", "tree-verify", "tree-period", "invariant",
                "orbit", "suite")
    assert pinned == {(c, f) for c in commands for f in ("text", "csv")}
