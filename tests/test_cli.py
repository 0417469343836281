"""Command line behavior, exercised in process through main(argv)."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import geomgw
from geomgw import OffspringParams, kesten_family
from geomgw.cli import REGIME_OPTIONS, _resolve_config, build_parser, main
from geomgw.lab import LAWS

KESTEN_LAW_ARGS = [
    "law",
    "--regime",
    "kesten",
    "--eta",
    "0.5",
    "--q",
    "0.5",
    "--height",
    "1",
    "--degree-cap",
    "3",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def law_doc(capsys, *argv):
    """The JSON document `geomgw law ... --format json` prints."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def csv_text(law):
    buf = io.StringIO()
    law.write_csv(buf)
    return buf.getvalue()


# -- law ----------------------------------------------------------------------


def test_law_csv_frozen_kesten(capsys):
    code, out, err = run(capsys, *KESTEN_LAW_ARGS)
    assert code == 0
    law = kesten_family(OffspringParams(0.5, 0.5), 1, 3)
    assert out == csv_text(law)
    assert law.meta["law"] == "kesten"
    want = {"1,0": 0.25, "2,0,0": 0.25, "3,0,0,0": 0.1875}
    assert set(law.entries) == set(want)
    for tree_code, mass in want.items():
        assert math.exp(law.entries[tree_code]) == pytest.approx(
            mass, rel=1e-13
        )


def test_law_json_matches_csv(capsys):
    code, out, err = run(capsys, *KESTEN_LAW_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "log_residual", "entries"}
    assert doc["meta"]["law"] == "kesten"
    assert doc["entries"]["1,0"] == pytest.approx(math.log(0.25), rel=1e-13)


def test_law_out_file(tmp_path, capsys):
    dest = tmp_path / "law.csv"
    code, out, err = run(capsys, *KESTEN_LAW_ARGS, "--out", str(dest))
    assert code == 0
    assert out == ""
    law = kesten_family(OffspringParams(0.5, 0.5), 1, 3)
    assert dest.read_text() == csv_text(law)
    assert len(law.entries) == 3


def test_law_restricted_view(capsys):
    doc = law_doc(
        capsys,
        "law",
        "--regime",
        "conditioned",
        "--eta",
        "0.5",
        "--q",
        "0.5",
        "--n",
        "4",
        "--a",
        "3",
        "--height",
        "2",
        "--degree-cap",
        "3",
        "--k0",
        "2",
    )
    assert doc["meta"]["law"] == "conditioned-restricted"
    assert doc["meta"]["k0"] == "2"


# `law` output pinned across changes, CSV and JSON: every regime at
# (eta, q) = (0.5, 0.5), the three views at k0 = 2, the fat limit at cap
# 40, and the five families at a subcritical and a supercritical pair
PINNED_LAWS = [
    ("--regime gw --eta 0.5 --q 0.5 --height 2 --degree-cap 3",
     "3f1c559f1aa9504cc6cf4a167e60897aef6a4b58ec595548f67381ec5e1ab991",
     "78e7cb57851b91535a5f99f007eac8a8628b2e1ecc13482895daa6e4f8544405"),
    ("--regime conditioned --n 3 --a 2 --eta 0.5 --q 0.5 --height 2 --degree-cap 3",
     "a5340605682e55d3933f25615c84ea39c0fbda68c160c0d0f0b2b69659c01692",
     "cce40d7401ddbaf7d562147217e8e2904782a057b382f799304ae89e714ad323"),
    ("--regime kesten --eta 0.5 --q 0.5 --height 2 --degree-cap 3",
     "5abb49b3e2aafda16041648ae25a5fc3b950c7392fb9206f55bcb70220318631",
     "be93d16ae076d6490bdd4d65b96e2b42d9c9dcb359a2dc559418edb2473f695e"),
    ("--regime poisson --theta 0.7 --eta 0.5 --q 0.5 --height 2 --degree-cap 3",
     "415cf4701b89e4b97612939bcb602a4d96db0c195e251f338f368ba213ed5e6e",
     "add3b0a2f02b75422a1e8777ec80f5a744c0997b9a1b1490933e182b253fb06e"),
    ("--regime condensation --k0 2 --eta 0.5 --q 0.5 --height 2 --degree-cap 3",
     "e36fcf26b1d287d3795fb00229ab7bef70c91fc32029b41f6a56c6cf194cedcc",
     "9b26e0419659c709c61e983dc030e05542015bde6d3515220a96d3fde5af0966"),
    ("--regime gw --eta 0.3 --q 0.5 --height 2 --degree-cap 3",
     "7444bd4dbd303d6aca39374a4084701f6d180aa9ef2f33e9be797d63fb0eab9e",
     "86360328f581c41e2b689f16376a0f7b2aa898417532a6cb256316e7356cbc4d"),
    ("--regime conditioned --n 3 --a 2 --eta 0.3 --q 0.5 --height 2 --degree-cap 3",
     "6ffa1bf801a472900ba4da705d76e4f55e4b90f507eac91a298a9c3f4249876f",
     "3ae26221fa27c91fdc40c7eac396d042266cc45b3d4de66461b4865694d52642"),
    ("--regime kesten --eta 0.3 --q 0.5 --height 2 --degree-cap 3",
     "224a9c19af1092c85b803c5eff98a642e11772cb771d9b03261a58b5f67b8229",
     "af0458cf616e6a11c2566afbcbddedaf8cc97945af65dbadf0b013f2611f5ff9"),
    ("--regime poisson --theta 0.7 --eta 0.3 --q 0.5 --height 2 --degree-cap 3",
     "7be46164bbfc390eb0a0a63e563fe7f75213d92b8525c366d7f68476dfca7601",
     "7edf6faa15acf0870fd58d5f2cc62087cce5dfd81857c1632452f34404869bbd"),
    ("--regime condensation --k0 2 --eta 0.3 --q 0.5 --height 2 --degree-cap 3",
     "da93edf63ea71bf09b75e7066ac628adcd463f056e41318ae0d4818e8445c273",
     "f1f28d17dad37192f9d44b35c0699de36ae9c9ba643cbe87950b83bd0e2ee4aa"),
    ("--regime gw --eta 0.6 --q 0.3 --height 2 --degree-cap 3",
     "71d15c3a01e6fb0c21baf1f056a0a7177ce28eb493d9bb2b6275d5047e27c264",
     "5c54bf417b0c745440eeb990a3bfb04abf2d6e82fc0037f65b2d2da0ae4d84a5"),
    ("--regime conditioned --n 3 --a 2 --eta 0.6 --q 0.3 --height 2 --degree-cap 3",
     "a13db5f5eaebdd1a0f74e8c465d2ab59e9ae2b8b26eb281bd06cd9253dd4800c",
     "b56c9158b7ee41a3d06cf2e71e41c208dcf13c2e7bcce29678879759c1382a8a"),
    ("--regime kesten --eta 0.6 --q 0.3 --height 2 --degree-cap 3",
     "16021dc67c20e556503928a5085d6c5113147d2f03f44db9699b27537caba31f",
     "2b07377e55ff58386875133b90a01772cbe0a8aa24b837d8d647c7993d33234c"),
    ("--regime poisson --theta 0.7 --eta 0.6 --q 0.3 --height 2 --degree-cap 3",
     "615866c70799cbfde767c0f135c127883bea422483ffecec9afd68a9ec29fbae",
     "fd2d4a6090ed9719a103e0464cde9cd3bc0386c7328e970ecb525c57429ddbb0"),
    ("--regime condensation --k0 2 --eta 0.6 --q 0.3 --height 2 --degree-cap 3",
     "745df1036c55e8b2a8f379a35de8267b739951f261a3dfd0462a318917f3ff39",
     "97dc55a3702abd5324351422549c1639df5c4de34cd5e2de4f97e33957406254"),
    ("--regime conditioned --n 3 --a 2 --eta 0.5 --q 0.5 --height 2 --degree-cap 3 --k0 2",
     "39f22d11e24c664e1bf58f922a11ae56cd171365f5305dbc93880bfaab091998",
     "8ca5f76b38c0beed1e0e48564cb8de808d8b32099086286ed2ced24a29d94eea"),
    ("--regime kesten --eta 0.5 --q 0.5 --height 2 --degree-cap 3 --k0 2",
     "88a7bdcedf48d3ba2adf97db0123774b080eb33244db6f7c55a973f73f4b8f6c",
     "71ecf863c0effd1788e2feafcee4aa6eb835b832fcd1975b7ce014fdb4c41b64"),
    ("--regime poisson --theta 0.7 --eta 0.5 --q 0.5 --height 2 --degree-cap 3 --k0 2",
     "6834ebd8dcfd5a028dd4894b7e1447395eaa334db1ed3a505e99536ecc0be4fb",
     "2263a61646431e279e93da286f538e58a5b2020d6d6feae81ecfb8e5442c5589"),
    ("--regime condensation --k0 2 --eta 0.5 --q 0.5 --height 2 --degree-cap 40",
     "5320a8f4e96dc188084150fff162e62ce13e095f74013ff38a5de79cbc3f9acb",
     "a1beccae130b21393d2ce68499027c95e174f58d7adbeec442f58b97980f8539"),
]
# views listing root degrees past 9, and the fat limit beside them. The
# mass check sums a table in its code order, so these residuals are pinned
# for that order (a sum in root-degree order moves one of them by an ulp)
PINNED_WIDE_VIEWS = [
    ("--regime conditioned --n 3 --a 2 --eta 0.5 --q 0.5 --height 1 --degree-cap 12 --k0 12",
     "6abf5b779f320421e4f3f5bd995284b4760b861c09896b76e6ca45fcd62941e0",
     "14f7c4b59b0d16b131546f3464e7a317bb5233e7f4718ed468d643d044ceef9c"),
    ("--regime conditioned --n 3 --a 2 --eta 0.3 --q 0.5 --height 1 --degree-cap 10 --k0 10",
     "0528849c6c2fdfa6f943d6415cbb9c764e79424bbb3ac5084db3413e4f6954d3",
     "5541228bf7ee8c3289a2d715bacd8b655a3a1b405fbbd9fb138137a8076e50e9"),
    ("--regime kesten --eta 0.5 --q 0.5 --height 1 --degree-cap 12 --k0 12",
     "3bd00bad33a99dc8f65633a952de58b0a4a774a26b2a4be751ceb57a73a8a6af",
     "bdb28f4c827f273bad34d7a2bec19717c0e8e7b6e76b5b4502998c38af813e69"),
    ("--regime kesten --eta 0.3 --q 0.5 --height 1 --degree-cap 10 --k0 10",
     "33fbff92afa03f540d7d411e205526a7f0cbc148f19306b663246e80a35f3cb9",
     "e02a49b3776c72388182c5fe0acb6649ad0edbd8afff5ad75374c9418b1037e4"),
    ("--regime poisson --theta 0.7 --eta 0.5 --q 0.5 --height 1 --degree-cap 12 --k0 12",
     "a53f7a3edce06554e295b22512e5c0854f62af460c20b2902a351eb24b972746",
     "42f3eed6cf2591367f8933779fff704b5e9ee3b6c43e52be74bf8eb8ba725e39"),
    ("--regime poisson --theta 0.7 --eta 0.3 --q 0.5 --height 1 --degree-cap 10 --k0 10",
     "bb3e30d3b1f7f62b34a159c63cafce6c8b8fac823408fae2e04d887e61ba7f61",
     "06b4e361a7f3687a5ef0760aa12f7216f3578ba2c4ccce92d7c279d8cf6add96"),
    ("--regime condensation --eta 0.5 --q 0.5 --height 1 --degree-cap 12 --k0 12",
     "2aedcec83595f556c4513dfa8ff60469790f490c1bb576559b7ff3155511d9b7",
     "dfad9ebe6348d4b7f59a9953be55192b8b45fa28ba1aef9e8c394d2a382b26ec"),
    ("--regime condensation --eta 0.3 --q 0.5 --height 1 --degree-cap 10 --k0 10",
     "ab62cee6dfe2afc882c46c3a57c4a585972f05e51f2ee091808913f6631f5727",
     "a5c8b3d1fe80a38ba8fe878ff225adce2e54539f733ce85f0887e5e3c51d8379"),
]


@pytest.mark.parametrize(
    "args,csv_digest,json_digest",
    PINNED_LAWS + PINNED_WIDE_VIEWS,
    ids=[args.removeprefix("--regime ").replace("--", "")
         for args, _, _ in PINNED_LAWS + PINNED_WIDE_VIEWS],
)
def test_law_output_is_pinned(capsys, args, csv_digest, json_digest):
    for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
        code, out, err = run(capsys, "law", *args.split(), "--format", fmt)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize(
    "extra",
    [
        ("--regime", "kesten", "--eta", "0.55", "--q", "0.45", "--k0", "2"),
        ("--regime", "conditioned", "--eta", "1", "--q", "0.5",
         "--n", "5", "--a", "3"),
    ],
    ids=["kesten-restricted", "conditioned-eta-one"],
)
def test_law_whose_mass_rounds_to_one(capsys, extra):
    # the tabulated mass sits half an ulp below 1: the residual is zero
    doc = law_doc(capsys, "law", "--height", "1", "--degree-cap", "6", *extra)
    assert doc["log_residual"] == -math.inf
    assert doc["entries"]


def test_law_conditioned_restricted_without_extinction(capsys):
    doc = law_doc(
        capsys, "law", "--regime", "conditioned", "--eta", "1", "--q", "0.5",
        "--n", "5", "--a", "3", "--height", "2", "--degree-cap", "3", "--k0", "2",
    )
    assert doc["meta"]["law"] == "conditioned-restricted"
    assert doc["entries"]


@pytest.mark.parametrize("eta,q", [(0.3, 0.5), (0.6, 0.3)], ids=["sub", "sup"])
def test_law_conditioned_at_a_deep_generation(capsys, eta, q):
    # at n = 2000 the smaller pole gap lies below the float range
    doc = law_doc(
        capsys, "law", "--regime", "conditioned", "--eta", str(eta), "--q", str(q),
        "--n", "2000", "--a", "1", "--height", "1", "--degree-cap", "3",
    )
    assert all(math.isfinite(v) for v in doc["entries"].values())


@pytest.mark.parametrize(
    "regime,eta,height,cap,ball",
    [("gw", "0.5", 1000, 0, "0"), ("kesten", "0.3", 400, 1, "1," * 400 + "0")],
)
def test_law_deeper_than_the_recursion_limit(capsys, regime, eta, height, cap, ball):
    # pools are built bottom-up, so the radius is not bounded by the stack
    doc = law_doc(
        capsys, "law", "--regime", regime, "--eta", eta, "--q", "0.5",
        "--height", str(height), "--degree-cap", str(cap),
    )
    assert list(doc["entries"]) == [ball]


def law_args_for(regime, *extra):
    argv = list(KESTEN_LAW_ARGS)
    argv[argv.index("--regime") + 1] = regime
    return argv + list(extra)


@pytest.mark.parametrize(
    "regime,extra,fragment",
    [
        ("poisson", ("--theta", "nan"), "theta must be finite"),
        ("poisson", ("--theta", "inf"), "theta must be finite"),
        ("poisson", ("--theta", "nan", "--k0", "1"), "theta must be finite"),
        ("gw", ("--height", "16", "--degree-cap", "2"), "more than the cap"),
        ("kesten", ("--theta", "5", "--n", "3"), "--n"),
        ("poisson", ("--theta", "0.7", "--n", "3", "--a", "2"), "--n"),
    ],
    ids=["theta-nan", "theta-inf", "theta-nan-restricted", "above-the-shape-cap",
         "kesten-with-n", "poisson-with-n"],
)
def test_law_argument_contract(capsys, regime, extra, fragment):
    code, out, err = run(capsys, *law_args_for(regime, *extra))
    assert code == 1
    assert err.startswith("error:")
    assert fragment in err


def test_uncertified_series_exits_2(tmp_path, capsys):
    # at theta 1e6 the sibling series' first pass, 2,014,175 terms i by
    # 9,063,804 rows K, is past its term limit: a numeric failure, not bad
    # input, and no output
    dest = tmp_path / "law.csv"
    code, out, err = run(
        capsys, "law", "--regime", "poisson", "--theta", "1e6", "--k0", "2",
        "--eta", "0.5", "--q", "0.5", "--height", "2", "--degree-cap", "6",
        "--out", str(dest),
    )
    assert code == 2
    assert err.startswith("numeric failure: sibling series not certified")
    assert out == ""
    assert not dest.exists()


def test_law_rejects_bad_offspring_parameters(capsys):
    argv = list(KESTEN_LAW_ARGS)
    argv[argv.index("--eta") + 1] = "1.5"
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "eta" in err


# -- sample ---------------------------------------------------------------


def sample_args(regime, samples, *extra):
    return [
        "sample",
        "--regime",
        regime,
        "--eta",
        "0.5",
        "--q",
        "0.5",
        "--height",
        "2",
        "--samples",
        str(samples),
        "--seed",
        "11",
        *extra,
    ]


def test_sample_headers_by_regime(capsys):
    cases = [
        (sample_args("gw", 2), "tree_code"),
        (sample_args("conditioned", 2, "--n", "3", "--a", "2"), "tree_code"),
        (sample_args("kesten", 2), "tree_code,survivor_flags"),
        (sample_args("poisson", 2, "--theta", "0.7"), "tree_code,survivor_flags"),
        (
            sample_args("condensation", 2, "--k0", "2"),
            "tree_code,survivor_flags",
        ),
        (
            sample_args(
                "condensation", 2, "--k0", "2", "--variant", "inhomogeneous"
            ),
            "tree_code",
        ),
    ]
    for argv, header in cases:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == header
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.startswith('"')


def test_sample_condensation_variant_defaults_to_two_type(capsys):
    base = sample_args("condensation", 20, "--k0", "2")
    code, implicit, err = run(capsys, *base)
    assert code == 0, err
    code, explicit, err = run(capsys, *base, "--variant", "two_type")
    assert code == 0, err
    assert implicit == explicit


def test_sample_is_deterministic_and_prefix_stable(capsys):
    code, first, _ = run(capsys, *sample_args("kesten", 5))
    code, second, _ = run(capsys, *sample_args("kesten", 5))
    assert first == second
    # per-sample substreams: a shorter run is a prefix of a longer one
    code, short, _ = run(capsys, *sample_args("kesten", 2))
    assert second.startswith(short)


@pytest.mark.parametrize(
    "regime,samples,extra",
    [
        ("conditioned", 0, ()),
        ("kesten", 0, ("--height", "-1")),
        ("condensation", 2, ("--k0", "0")),
        ("kesten", -1, ()),
        ("poisson", 2, ("--theta", "inf")),
        ("poisson", 2, ("--theta", "1e300")),
        ("gw", 2, ("--theta", "5", "--n", "3", "--a", "9",
                   "--variant", "inhomogeneous")),
    ],
    ids=["conditioned-no-draws", "kesten-negative-height", "condensation-zero-k0",
         "negative-samples", "poisson-infinite-theta", "poisson-huge-theta",
         "gw-with-other-regimes-options"],
)
def test_sample_checks_options_before_writing(
    tmp_path, capsys, regime, samples, extra
):
    dest = tmp_path / "draws.csv"
    code, out, err = run(
        capsys, *sample_args(regime, samples, *extra), "--out", str(dest)
    )
    assert code == 1
    assert err.startswith("error:")
    assert not dest.exists()


# a value each regime option accepts, and the rest of each command's argv
OPTION_VALUES = {"n": "3", "a": "2", "theta": "0.7", "k0": "2",
                 "variant": "inhomogeneous"}
COMMAND_ARGS = {"law": ("--height", "2", "--degree-cap", "3"),
                "sample": ("--height", "2")}


def regime_argv(command, regime, *options):
    argv = [command, "--regime", regime, "--eta", "0.5", "--q", "0.5",
            *COMMAND_ARGS[command]]
    for name in options:
        argv += [f"--{name}", OPTION_VALUES[name]]
    return argv


# every (command, regime, option) for the regime options each command's parser has
CONTRACT = [
    (command, regime, name)
    for command in COMMAND_ARGS
    for name in REGIME_OPTIONS
    if name in vars(build_parser().parse_args(regime_argv(command, "gw")))
    for regime in LAWS
]


@pytest.mark.parametrize(
    "command,regime,option", CONTRACT, ids=["-".join(case) for case in CONTRACT]
)
def test_regime_option_contract(tmp_path, capsys, command, regime, option):
    # a needed option left out, or an option the regime does not read, is
    # refused before --out is opened; an option the regime takes is read
    row = LAWS[regime]
    needs = [name for name in row.needs if name != option]
    given = needs if option in row.needs else [*needs, option]
    dest = tmp_path / "out.csv"
    code, out, err = run(
        capsys, *regime_argv(command, regime, *given), "--out", str(dest)
    )
    if option in row.takes.get(command, ()):
        assert code == 0, err
        return
    if option in row.needs:
        assert err == f"error: --{option} is required here\n"
    else:
        assert err == (f"error: --{option} sets {REGIME_OPTIONS[option]}, which "
                       f"`{command} --regime {regime}` does not read\n")
    assert code == 1
    assert not dest.exists()


@pytest.mark.parametrize("regime", list(LAWS))
def test_law_and_sample_agree_at_height_zero(capsys, regime):
    # the radius-0 ball is the lone root: a regime either gives it mass 1
    # and draws it, or refuses height 0 in both commands
    needs = LAWS[regime].needs
    law_code, law_out, law_err = run(
        capsys, *regime_argv("law", regime, *needs), "--height", "0", "--format", "json"
    )
    draw_code, draw_out, draw_err = run(
        capsys, *regime_argv("sample", regime, *needs), "--height", "0"
    )
    assert law_code == draw_code
    if law_code:
        assert law_err.startswith("error:") and draw_err.startswith("error:")
        return
    doc = json.loads(law_out)
    assert doc["entries"] == {"0": 0.0}
    assert doc["log_residual"] == -math.inf
    assert draw_out.splitlines()[1].split(",")[0] == '"0"'


def test_sample_negative_seed_is_an_error(tmp_path, capsys):
    dest = tmp_path / "draws.csv"
    code, out, err = run(
        capsys, "sample", "--regime", "gw", "--eta", "0.5", "--q", "0.5",
        "--height", "2", "--seed", "-1", "--out", str(dest),
    )
    assert code == 1
    assert err == "error: seed must be >= 0, got -1\n"
    assert "Traceback" not in err
    assert not dest.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ("--regime", "poisson", "--theta", "1"),
        ("--regime", "condensation", "--k0", "1"),
    ],
    ids=["poisson", "two_type"],
)
def test_sample_at_eta_one_names_eta(capsys, extra):
    code, out, err = run(
        capsys, "sample", "--eta", "1", "--q", "0.5", "--height", "2", *extra
    )
    assert code == 1
    assert err == "error: extinction needs eta < 1, got eta=1.0\n"


def test_sample_deeper_than_the_recursion_limit(capsys):
    code, out, err = run(
        capsys, "sample", "--regime", "kesten", "--eta", "0.3", "--q", "0.5",
        "--height", "1500", "--samples", "1",
    )
    assert code == 0, err
    header, row = out.splitlines()
    code_text, flags = row.strip('"').split('","')
    # the spine: one survivor on each of the 1,501 levels
    assert flags.count("1") == 1501
    assert len(flags) == len(code_text.split(","))


# sampler output pinned across changes: a refactor of any sampler must keep
# every draw and its order, so these bytes may not move
PINNED_SAMPLES = [
    ("gw", (), "daff989881286117b8f6fd3413b10c431fc2e313c046bca37495b4f42f748132"),
    ("conditioned", ("--n", "6", "--a", "3"),
     "1d82605517cc02c65594150880858176072a5d601d1fc7ae99f9abf144c29b8c"),
    ("kesten", (), "978d0b9dab617f84861b99d8ea32ba26e0cdccebc2f409eae421bd610248e2ae"),
    ("poisson", ("--theta", "0.7"),
     "a9e181e16ac36201b7addb7528bb8efcb5baf8303d3627cb500d508f00548b87"),
    ("condensation", ("--k0", "2"),
     "c29fcf64738cad6ac97132005152371d0be11e438ff805ae02aee6e03e550c87"),
    ("condensation", ("--k0", "2", "--variant", "inhomogeneous"),
     "266dd3815533a1dc338a19f60a8955a497eb8d5e70743480c8f63b02f6406211"),
    ("conditioned", ("--n", "40", "--a", "200", "--height", "5", "--samples", "200"),
     "1dbde31c930b1f1d9cd951fa857f39405c47b1fadc4ecfa612832c5bb186f642"),
]


@pytest.mark.parametrize(
    "regime,extra,digest",
    PINNED_SAMPLES,
    ids=["gw", "conditioned", "kesten", "poisson", "two_type", "inhomogeneous",
         "bridge"],
)
def test_sample_output_is_pinned(tmp_path, capsys, regime, extra, digest):
    dest = tmp_path / "draws.csv"
    argv = [
        "sample", "--regime", regime, "--eta", "0.5", "--q", "0.5",
        "--height", "3", "--samples", "500", "--seed", "11",
        *extra, "--out", str(dest),
    ]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest


# -- oracle -----------------------------------------------------------------


def test_oracle_command(capsys):
    code, out, err = run(capsys, "oracle")
    assert code == 0
    assert "10/10 equivalence checks passed" in out
    assert out.count("PASS") == 10
    assert "FAIL" not in out


# -- converge -----------------------------------------------------------------


def tiny_config(tmp_path, **overrides):
    cfg = dict(
        eta=0.5,
        q=0.5,
        regime="kesten",
        h=1,
        degree_cap=4,
        n_grid=[4, 8],
        a_rule="const",
        a_const=1,
        theta_grid=[0.5, 2.0],
    )
    cfg.update(overrides)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_converge_regime_csv_and_svg(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_csv = tmp_path / "curve.csv"
    out_svg = tmp_path / "curve.svg"
    code, out, err = run(
        capsys,
        "converge",
        "--config",
        cfg,
        "--out",
        str(out_csv),
        "--svg",
        str(out_svg),
    )
    assert code == 0
    assert "2 rows (kesten, regime mode)" in err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,a_n,tv_exact,tv_residual_bound,certified"
    assert len(lines) == 3
    assert out_svg.read_text().startswith("<svg ")


def test_converge_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    cfg = tiny_config(tmp_path)
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        monkeypatch.setenv("GEOMGW_THREADS", threads)
        dest = tmp_path / name
        code, _, _ = run(capsys, "converge", "--config", cfg, "--out", str(dest))
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_converge_theta_mode(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_csv = tmp_path / "theta.csv"
    code, out, err = run(
        capsys,
        "converge",
        "--config",
        cfg,
        "--mode",
        "theta",
        "--out",
        str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == (
        "theta,gap_kesten,tv_kesten,gap_condensation,tv_condensation"
    )
    assert len(lines) == 3


def test_converge_missing_config(capsys):
    code, out, err = run(capsys, "converge", "--config", "nonesuch")
    assert code == 1
    assert "no config file or bundled config" in err


@pytest.mark.parametrize("case", ["law-out", "converge-svg", "config-dir"])
def test_unopenable_paths_are_errors(tmp_path, capsys, case):
    missing = tmp_path / "missing"
    out_csv = tmp_path / "curve.csv"
    argv = {
        "law-out": (*KESTEN_LAW_ARGS, "--out", str(missing / "x.csv")),
        "converge-svg": (
            "converge", "--config", tiny_config(tmp_path), "--out",
            str(out_csv), "--svg", str(missing / "k.svg"),
        ),
        "config-dir": ("converge", "--config", str(tmp_path)),
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    if case == "converge-svg":
        # both outputs open before the sweep: the chart path failed first,
        # so the sweep never ran and the CSV holds not even its header
        assert out_csv.read_text() == ""
        assert "rows (" not in err


# chart bytes of the bundled sweeps, pinned like the CSVs: a rewrite of the
# converge path must draw the same charts
PINNED_CHARTS = [
    ("kesten", "regime",
     "5c81c74eec1a6828b97dfc435cf06187d649e6cd70751190577f421824c186a4"),
    ("poisson", "regime",
     "2cc814e7b4847499e99cb4887dba41bdb8c6277ae1632ef241c974bb4b260bd6"),
    ("condensation", "regime",
     "34d551871456ad14bf2c3784bf3d283a50d2473581fbd211a41df3e92057b296"),
    ("poisson", "theta",
     "612aac0a8c2036cfcbcd18d14aad2126c20b3de106a61e772ecf1878faaf46fd"),
]


@pytest.mark.parametrize(
    "config,mode,digest", PINNED_CHARTS,
    ids=["kesten", "poisson", "condensation", "poisson-theta"],
)
def test_converge_svg_is_pinned(tmp_path, capsys, config, mode, digest):
    out_svg = tmp_path / "chart.svg"
    code, out, err = run(
        capsys, "converge", "--config", config, "--mode", mode,
        "--out", str(tmp_path / "curve.csv"), "--svg", str(out_svg),
    )
    assert code == 0, err
    assert hashlib.sha256(out_svg.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_grid": 5},
        {"h": 1.5},
        # c_n = mu^-n overflows a double at n = 2000
        {
            "eta": 0.3, "q": 0.5, "regime": "poisson", "n_grid": [2000],
            "a_rule": "default",
        },
        # c_n fits a double at n = 1380, theta * c_n does not
        {
            "eta": 0.3, "q": 0.5, "regime": "poisson", "n_grid": [1380],
            "a_rule": "default", "theta": 1e5,
        },
        # a zero entry ended a theta sweep in the chart's log axis, a NaN
        # entry wrote a row of NaN
        {"theta_grid": [0.5, 0.0]},
        {"theta_grid": [0.5, math.nan]},
    ],
    ids=["scalar-grid", "fractional-h", "scale-overflow", "target-overflow",
         "theta-grid-zero", "theta-grid-nan"],
)
def test_converge_bad_config_values_are_errors(tmp_path, capsys, overrides):
    cfg = tiny_config(tmp_path, **overrides)
    code, out, err = run(capsys, "converge", "--config", cfg)
    assert code == 1
    assert err.startswith("error:")


def test_bundled_configs_resolve():
    for name in ("kesten", "poisson", "condensation"):
        cfg = _resolve_config(name)
        assert cfg.regime == name
        assert len(cfg.n_grid) >= 3


# -- parser ---------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_import_leaves_scipy_stats_unloaded():
    # every CLI call pays the package import; scipy.stats alone took most of it
    src = os.path.dirname(os.path.dirname(geomgw.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, geomgw; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    assert out.stdout.strip() == "False"
