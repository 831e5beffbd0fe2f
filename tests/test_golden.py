"""Byte-for-byte regression against outputs recorded from an earlier release.

The system files are the README examples (``sys.txt``, ``sq.txt``), two
unscaled rungs of the benchmark's dual-element ladder (``cube3.txt``,
``cyclic3.txt``) and two systems past the old det G wall (``3var_d27.txt``,
``4var_d16.txt``), plus a positive-dimensional system whose Groebner basis
the CLI fuzz found slow (``posdim3.txt``) and an embedded system whose
theorem 3 witness lies at column 14,631 of 29,260 candidates
(``thm3_b18.txt``, degree bound 18), and ``surplus3.txt``, cube3 plus a
redundant equation, the one recorded ``dual-element`` case with more
equations than variables (the det G route, whose cocycle test takes the
boundary of nonempty dual words), and ``dense2_d36.txt``, a dense
system of two degree-6 polynomials whose Groebner basis carries
coefficients of over 100 bits, where the others' are small; the expected stdout of each command
sits next to them in ``tests/golden``, as do the stdout of two sweeps past
``verify all``'s shapes, where the products are longest: ``verify lemma1``
at n = s = 5, t = 4 and ``verify lemma2`` at s = t = 5.  ``verify thm3 --seed 586795`` is pinned in full, since its
seven ``homotopic`` reports render the witnesses the linear solver picks.
The full ``verify all --seed 42`` report is pinned by its sha256, as are
``verify all`` at seeds 1, 7 and 201, ``verify lemma1`` at n = s = t = 4
and ``verify lemma2`` at s = t = 4, whose s = 4 lies outside ``verify all``,
``verify lemma1 --seed 201`` (the benchmark's lemma 1 shapes), ``verify
thm1`` at n = s = t = 3 (10 samples per map, and the default 50), ``verify thm2`` at n = s = t = 3, ``verify thm3
--seed 201 --count 40`` (the suite the benchmark's witness workload
runs), and the ``dual-element`` stdout of ``surplus27.txt``: d = 27 with
four equations in three variables, whose cocycle test takes the boundary
of nonempty dual words against large multipliers, of ``triple_x.txt``
(f = x, x, x: s - n = 2, where the dual element's orientation flips) and
of ``tower_s5.txt`` (five equations in two variables, s - n = 3); the
last two are also pinned under ``pair``, against polynomials whose
exponents pass each annihilator's degree.  The
instances lemma 1 and lemma 2 draw at seed 201 are pinned with their
bordered determinants, one sha256 per suite.  Each stdout digest is pinned
twice: as today's stdout and, with the ``"elapsed": null,`` line every
report used to carry put back, as the stdout of the earlier release.
"""

import hashlib
import json
from pathlib import Path

import pytest

from koszulkit import cli
from koszulkit.cli import main
from koszulkit.grassmann import Element, bordered_det, render_element
from koszulkit.ring import FamilyRegistry

GOLDEN = Path(__file__).parent / "golden"

# Each digest pair below is (release, now): the sha256 of the stdout the
# earlier release printed, where every report carried an "elapsed": null
# line, and the sha256 of today's stdout, which drops that line.
VERIFY_ALL_SEED42_SHA256 = (
    "41bf911974e1598071c9c6715249f2425670923139271824502fb3d16f6fc715",
    "14fedd2234933ee76c2d2bac683870e5988b454b85ddef5a8706c247d00724f6",
)

VERIFY_STDOUT_SHA256 = [
    (
        ["all", "--seed", "1"],
        "ef0e766d31f5b07da6b9abc557e064936ed6494a14bfa1294a881e9916663dab",
        "ec690f9b708c4ec1f31decb3b0194e6fb9d7cd2514270d52ef4d10de0a89a29d",
    ),
    (
        ["all", "--seed", "7"],
        "9ac3615a1b9ec9faa9192648d609c0ae7661bca1f147ff291f7faa6dcb8a6e32",
        "b0580541763238499a60d3bff67f8bde62f5538bd33bc44a52bc272c8b3e6372",
    ),
    (
        ["all", "--seed", "201"],
        "378b74fbffcad2cd5625b2599f0515d323a4fdd3693ed342924a2bd01d1f3dfe",
        "bbbe8e54763e72b23b47a1432e6bc5a3ab21a37754b16f1f6bf152d4766c368f",
    ),
    (
        ["lemma1", "--n", "4", "--s", "4", "--t", "4", "--count", "5", "--seed", "42"],
        "fde4bf5282efc1c0c362ae73946bd25ddbcd2cf91afb0b06471fd0d9ed183df1",
        "3d44705e8df4a564833bf40f89f33c8b6314a6a3a8f90a8bc89ed0355c6455d8",
    ),
    (
        ["lemma2", "--s", "4", "--t", "4", "--count", "5", "--seed", "42"],
        "d4b71331d22e66f11f543581413b1bfcee4926482b3ac93d1f7a1d68311b44b8",
        "677a560205d0be20742c5c57b79baf382e86859af95f935a961e3b2823286263",
    ),
    (
        ["lemma1", "--seed", "201"],
        "504d9b1dfd630e122e212f64355ec11f52213db4f4bf8178129ca435f1eb5282",
        "029418618df216f7df754cad80a36f2773e118a7f14f81cdeef02aa79e31c115",
    ),
    (
        ["thm1", "--n", "3", "--s", "3", "--t", "3", "--count", "10", "--seed", "42"],
        "ab9c9c68de08329bd1c55a23bb11d8368b514d7cc02a269d16f3fc95bb65b4c5",
        "3976bdf360a1bd33ab1e94d922514615d07729d4f455c345e5a24f31cb11d675",
    ),
    (
        ["thm3", "--seed", "201", "--count", "40"],
        "7d32adb8c20d11835014d5502da052c29382d3da6ed497e2103b963a21aa9fed",
        "ff0a7c12a85fd52dced60d95a9261d760727b0dfd0ee67628c3c97aed1a3a705",
    ),
    (
        ["thm2", "--n", "3", "--s", "3", "--t", "3", "--count", "5", "--seed", "42"],
        "3d4b91b63b6a208164146e7a9ab52608d9a38428c15fb10b383cf538ffd3c763",
        "ff84cd31c0f564b96da9a1c4af20dd17bcabe2d37ba351238039023d20c89ad2",
    ),
    # the default 50 samples per map: up to 42 distinct words per domain
    # (appended last so the earlier cases keep their test ids)
    (
        ["thm1", "--n", "3", "--s", "3", "--t", "3", "--seed", "42"],
        "c638123cb9931528cd856e9afb0fe611c40d663c1b0ff443f17a165d03bf3e19",
        "9d3be9a34d646592abcef9711ab6e1c75b40cdf2f688eefbd78c6b49fbac5683",
    ),
]

# dual-element stdout pinned by digest: system file -> (release, now)
SYSTEM_STDOUT_SHA256 = [
    (
        "surplus27",
        "cd350ea74d0cbe1cc33addcb5fe2a562540cce12b30dc2554cf259c595a936db",
        "992ef19def4efa77f8d18b41e9f7b9ce3b9d404ce13ccb30db2567a33d3e55d1",
    ),
    # more equations than variables at s - n = 2, where e's orientation
    # (-1)^(k(k-1)/2) flips, and at s - n = 3 (appended last so the
    # earlier cases keep their test ids)
    (
        "triple_x",
        "c40e5ef3ec1cc3751f29099fa37fc1f56628e6ca1ca5e5db14d815fbc93fde83",
        "f13b22b560c44836fac9ef27e4b5fdf26d114e6820757a7ed6ccd467349fd1be",
    ),
    (
        "tower_s5",
        "283adf93d5efec7f93af635969c15664aef9d4f0b3ade25d1f02b22239b43fbc",
        "6454ef4955576c076ac36a786e9cae4244a1873cd9ce42421b713b2c4a445778",
    ),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _with_elapsed(out):
    """Put back the ``"elapsed": null,`` line the earlier release printed in
    every report, right after its ``"detail"`` line (the keys are sorted)."""
    lines = []
    for line in out.splitlines(keepends=True):
        lines.append(line)
        key = line.lstrip()
        if key.startswith('"detail": '):
            lines.append(line[: len(line) - len(key)] + '"elapsed": null,\n')
    return "".join(lines)


def _assert_digests(out, release, now):
    assert _sha256(out) == now
    # deleting the field changed nothing else in the output
    assert _sha256(_with_elapsed(out)) == release


CASES = [
    ("sys", ["dual-element"], "sys.dual-element.json"),
    ("sys", ["pair", "--poly", "x1*x2"], "sys.pair.json"),
    ("sys", ["groebner"], "sys.groebner.json"),
    ("sq", ["dual-element"], "sq.dual-element.json"),
    ("sq", ["pair", "--poly", "x"], "sq.pair.json"),
    ("sq", ["groebner"], "sq.groebner.json"),
    ("cube3", ["dual-element"], "cube3.dual-element.json"),
    ("cyclic3", ["dual-element"], "cyclic3.dual-element.json"),
    ("3var_d27", ["dual-element"], "3var_d27.dual-element.json"),
    ("4var_d16", ["dual-element"], "4var_d16.dual-element.json"),
    ("posdim3", ["groebner"], "posdim3.groebner.json"),
    ("surplus3", ["dual-element"], "surplus3.dual-element.json"),
    # sweeps past verify all's shapes, no system file
    (
        None,
        ["verify", "lemma1", "--n", "5", "--s", "5", "--t", "4", "--count", "2", "--seed", "42"],
        "verify-lemma1.n5s5t4.json",
    ),
    (
        None,
        ["verify", "lemma2", "--s", "5", "--t", "5", "--count", "3", "--seed", "42"],
        "verify-lemma2.s5t5.json",
    ),
    # a dense 2-variable degree-6 system, d = 36, whose Groebner basis
    # carries coefficients of over 100 bits
    ("dense2_d36", ["groebner"], "dense2_d36.groebner.json"),
    ("dense2_d36", ["dual-element"], "dense2_d36.dual-element.json"),
    # pair on systems with more equations than variables, where e has no
    # word-free part and pairs to 0; l's exponents reach past each T_j's
    # degree, so its values come from the recurrence
    (
        "surplus27",
        [
            "pair",
            "--poly",
            "a^29*b^40*c^32 + a^26*b^26*c^26 - 3*a^32*b^26*c^40 + a^40*b^26*c^26"
            " + 2*a^25*b^40*c^40",
        ],
        "surplus27.pair.json",
    ),
    (
        "tower_s5",
        ["pair", "--poly", "x1^2*x2^2 - 2*x1^3*x2^2 + x1^2*x2^7 + 5*x2^2"],
        "tower_s5.pair.json",
    ),
]


@pytest.mark.parametrize("system, argv, expected", CASES)
def test_command_stdout_matches_recording(capsys, monkeypatch, system, argv, expected):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    if system is None:
        code = main(argv)
    else:
        code = main([argv[0], str(GOLDEN / f"{system}.txt"), *argv[1:]])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


@pytest.mark.parametrize("system", ["3var_d27", "4var_d16"])
def test_wall_recordings_hold_verified_reports(system):
    data = json.loads((GOLDEN / f"{system}.dual-element.json").read_text())
    assert [r["name"] for r in data["reports"]] == ["theorem4.cocycle", "theorem4.pairing"]
    assert all(r["status"] in ("equal", "homotopic") for r in data["reports"])


@pytest.mark.parametrize("poly", ["0", "x - x"])
@pytest.mark.parametrize("system", ["sq", "triple_x"])
def test_pair_on_the_zero_polynomial(capsys, system, poly):
    """The zero polynomial has no exponent vector to read: both pairings
    are 0, on a square system and on one with s - n = 2."""
    code = main(["pair", str(GOLDEN / f"{system}.txt"), "--poly", poly])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (data["poly"], data["pair_with_e"], data["pair_with_l"]) == ("0", "0", "0")


def test_pair_with_undeclared_variable_prints_nothing(capsys):
    code = main(["pair", str(GOLDEN / "sq.txt"), "--poly", "x1*x2"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_verify_all_seed42_digest(capsys, monkeypatch):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    assert main(["verify", "all", "--seed", "42"]) == 0
    _assert_digests(capsys.readouterr().out, *VERIFY_ALL_SEED42_SHA256)


# the test ids carry the release digest, so they outlive a change of output
@pytest.mark.parametrize("argv, digest", [(argv, release) for argv, release, _ in VERIFY_STDOUT_SHA256])
def test_verify_digests(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    assert main(["verify", *argv]) == 0
    now = {release: now for _, release, now in VERIFY_STDOUT_SHA256}[digest]
    _assert_digests(capsys.readouterr().out, digest, now)


@pytest.mark.parametrize("system, digest", [(system, release) for system, release, _ in SYSTEM_STDOUT_SHA256])
def test_dual_element_digests(capsys, monkeypatch, system, digest):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    assert main(["dual-element", str(GOLDEN / f"{system}.txt")]) == 0
    now = {release: now for _, release, now in SYSTEM_STDOUT_SHA256}[digest]
    _assert_digests(capsys.readouterr().out, digest, now)


def test_verify_thm3_witnesses_match_recording(capsys, monkeypatch):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    assert main(["verify", "thm3", "--seed", "586795"]) == 0
    expected = (GOLDEN / "thm3.seed586795.json").read_text()
    assert capsys.readouterr().out == expected


def test_verify_thm3_file_matches_recording(capsys):
    assert main(["verify", "thm3", "--file", str(GOLDEN / "thm3_b18.txt")]) == 0
    expected = (GOLDEN / "thm3_b18.verify-thm3.json").read_text()
    assert capsys.readouterr().out == expected


# sha256 of every instance lemma 1 and lemma 2 draw at seed 201 (the
# benchmark's shapes), each with the bordered determinant's rendered value
LEMMA_VALUES_SHA256 = {
    "lemma1": "41691620b4fc11a40e3d4fc4ee6a405e0f727345ba3acd1f0c86b6f1ca0a8f57",
    "lemma2": "d41f8ae2173ad743ac56d15146e1c128a4439509ff053fb21f4bf26b2a9ea809",
}


def _bordered_value(a, b):
    """``render_element`` of ``bordered_det`` on lemma 1's arguments, the
    odd row's columns over g as ``verify_lemma1`` builds them."""
    s, t, n = len(a), len(b), len(a[0])
    reg = FamilyRegistry()
    f = reg.odd("f", s)
    g = reg.odd("g", t)
    oddrow = [
        sum(
            (Element.generator(reg, reg.odd_rank(g, j + 1)) * row[k] for j, row in enumerate(b)),
            Element.zero(reg),
        )
        for k in range(n)
    ]
    return render_element(bordered_det(a, oddrow, f, reg))


@pytest.mark.parametrize("suite", sorted(LEMMA_VALUES_SHA256))
def test_lemma_values_digest(monkeypatch, suite):
    """The reports name only their instances, and ``input_digest`` hashes
    only the argument line, so this pins what lemma 1 and lemma 2 draw and
    compute: each drawn matrix with the bordered determinant of the
    instance.  Lemma 2's value is lemma 1's with a the identity and the odd
    row the negated columns of b (its contracted product)."""
    h = hashlib.sha256()
    real1, real2 = cli.verify_lemma1, cli.verify_lemma2

    def lemma1(a, b, instance=""):
        h.update(f"{instance}: {a!r} {b!r} -> {_bordered_value(a, b)}\n".encode())
        return real1(a, b, instance)

    def lemma2(b, instance=""):
        s = len(b[0])
        ident = [[int(i == k) for k in range(s)] for i in range(s)]
        neg = [[-x for x in row] for row in b]
        h.update(f"{instance}: {b!r} -> {_bordered_value(ident, neg)}\n".encode())
        return real2(b, instance)

    monkeypatch.setattr(cli, "verify_lemma1", lemma1)
    monkeypatch.setattr(cli, "verify_lemma2", lemma2)
    reports = getattr(cli, f"suite_{suite}")(seed=201)
    assert reports and all(r.status == "equal" for r in reports)
    assert h.hexdigest() == LEMMA_VALUES_SHA256[suite]
