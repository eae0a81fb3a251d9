"""Command-line frontend: dispatch, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from greenkernel import cli
from greenkernel.cli import (
    EXIT_AUDIT,
    EXIT_OK,
    EXIT_SCOPE,
    EXIT_USAGE,
    build_parser,
    dispatch,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fgl_show(capsys):
    code, out, _ = run(capsys, "fgl", "show", "--p", "2", "--n", "1", "--deg", "2")
    assert code == EXIT_OK
    assert "x*y" in out
    code, out, _ = run(capsys, "fgl", "show", "--p", "2", "--deg", "2", "--format", "json")
    data = json.loads(out)
    assert data["terms"] == {"0,1": 1, "1,0": 1, "1,1": 1}


# SHA-256 of `fgl show` output, recorded before the group law moved from a
# TruncPoly to a residue array; the text and JSON must stay byte-identical.
FGL_SHOW_DIGESTS = {
    ("--p", "2", "--deg", "8", "text"): "100462e1704a3fb9a961e6e3b4419b5dc71f9172f97c0d35a1860a6fd37749e5",
    ("--p", "2", "--deg", "8", "json"): "adcd284881424c5580a318821cfde7be97e1a8462761c313e315bdc13f5590f8",
    ("--p", "3", "--deg", "9", "text"): "c324220790767de7efc9b525c7c5e8b2ace67bae25d4d05502dbc4f6fb7994a6",
    ("--p", "3", "--deg", "9", "json"): "910ece2ed0e746509f6b779cebdb07124fe6ba3deeb7c51f5363a7f3052f5ead",
    ("--p", "2", "--n", "2", "--deg", "16", "text"):
        "1509660a452f77d01252aabaedd1dad3d9e427a06fe51b8d63e516e278a0bdf2",
    ("--p", "2", "--n", "2", "--deg", "16", "json"):
        "c48b8a70d02efb6a7e19b5c2dc251932853f89b4ea28194f754558e29fe5b856",
}


@pytest.mark.parametrize("key", sorted(FGL_SHOW_DIGESTS))
def test_fgl_show_output_is_byte_identical(capsys, key):
    *flags, fmt = key
    code, out, _ = run(capsys, "fgl", "show", *flags, "--format", fmt, "--no-timing")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == FGL_SHOW_DIGESTS[key]


def test_tower_show_prints_coproduct(capsys):
    code, out, _ = run(capsys, "tower", "show", "--p", "2", "--n", "1", "--r", "1")
    assert code == EXIT_OK
    assert "psi(x) = x⊗1 + 1⊗x + x⊗x" in out


def test_tower_check(capsys):
    code, out, _ = run(capsys, "tower", "check", "--p", "2", "--n", "1", "--r", "1",
                       "--s", "1", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["pdiv"]["all_pass"] is True
    assert data["axioms"]["H_2"]["all_pass"] is True


def test_tower_check_h6_output_pinned(capsys):
    # levels 3, 6 and 7 at p = 2, the largest built first; digest recorded
    # before the output-graded sandwich and the Frobenius columns
    code, out, _ = run(capsys, "tower", "check", "--p", "2", "--r", "3", "--s", "3",
                       "--format", "json", "--no-timing")
    assert code == EXIT_OK
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "f117c91c1b5bd68d0e123fe604d63bfa6bd51ffec4b6e8dc4aa04e348303ae0a")


@pytest.mark.parametrize("argv,digest", [
    (("--p", "3", "--r", "2", "--s", "2"),
     "1e99cdba29121be65e2f5652fef1ac908e309584530d80080dbf992e1a75666f"),
    (("--p", "2", "--n", "2", "--r", "1", "--s", "2"),
     "c4a315c853298fee8e8d343e2cc7a984b36edbe1949955d5c7728b2f14589e05"),
])
def test_tower_check_output_pinned(capsys, argv, digest):
    # p = 3 (levels 2, 4, 5) and q = 4 (levels 1, 2, 3, 4); digests
    # recorded while every level's law was computed in full
    code, out, _ = run(capsys, "tower", "check", *argv, "--format", "json", "--no-timing")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_green_value_a4_frontier_output_pinned(capsys):
    # A(A4) at p = 2, n = 4: a size above the benchmark's value jobs (about
    # 1 s); digest recorded before row reduction updated columns c onward
    code, out, _ = run(capsys, "green", "value", "--group", "A4", "--p", "2", "--n", "4",
                       "--format", "json", "--no-timing")
    assert code == EXIT_OK
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "351ed40af0bcbfd8f3ee66c1297546e71e9ec79579937fcb8770ca5281ea220a")


@pytest.mark.parametrize("argv,digest", [
    (["--n", "5"], "d8bfc8d12c10346e9292ecff06ee07267c9fc01db4dc63f97026b4a01a36ed0a"),
    (["--n", "6", "--budget", "1024"],
     "357c041e29afac059d48c77fedda5ac433f7b94612d0688b68b33e71c9f7131a"),
])
def test_green_value_s3_frontier_output_pinned(capsys, argv, digest):
    # A(S3) at p = 3: the stable subalgebras of F_3[x]/(x^243) and of
    # F_3[x]/(x^729) (about 0.2 s and 3 s); digests recorded while closure
    # was still tested on every pair product of the basis
    code, out, _ = run(capsys, "green", "value", "--group", "S3", "--p", "3", *argv,
                       "--format", "json", "--no-timing")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_green_value_s3(capsys):
    code, out, _ = run(capsys, "green", "value", "--group", "S3", "--p", "3",
                       "--n", "1", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["kind"] == "general"


def test_green_value_p_prime_group(capsys):
    code, out, _ = run(capsys, "green", "value", "--group", "C2", "--p", "3",
                       "--n", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["dim"] == 1


def test_green_res_ind(capsys):
    code, out, _ = run(capsys, "green", "res", "--group", "C4", "--p", "2",
                       "--subgroup", "(1 3)(2 4)", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["source_dim"] == 4 and data["target_dim"] == 2
    code, out, _ = run(capsys, "green", "ind", "--group", "S3", "--p", "3",
                       "--subgroup", "sylow", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["source_dim"] == 3 and data["target_dim"] == 2


def test_green_stable(capsys):
    code, out, _ = run(capsys, "green", "stable", "--group", "A4", "--p", "2",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["lim_dim"] == 2 == data["colim_dim"]


# SHA-256 of `green stable --format json --no-timing`, recorded before the
# limit became one stacked kernel and the colimit was computed on read;
# lim_basis and colim_dim must stay byte-identical.
GREEN_STABLE_DIGESTS = {
    ("S3", "3", "2"): "9831dc68bf0f1cc96040dfd45b838178f3eec90985255d105983651d9adce7b7",
    ("A4", "2", "2"): "318a5bce91d4e75f2207e7304fec116e013be4410c479f7e7cf56bed7e412f22",
    ("S4", "3", "2"): "70ffc656784fbd975710a9a9d430d58e18929609486bb5a35aba20c6bd78605e",
    ("D5", "5", "1"): "7108ed00a53752c20d019c29bd2aaf623d1bdffb5ca0f8bf01680e6abeb287d7",
    ("S3", "2", "3"): "493de51d42dfa05033eb182f4d5602d47d19f5fe42df7dce8bc6c1df89c82606",
}


@pytest.mark.parametrize("key", sorted(GREEN_STABLE_DIGESTS))
def test_green_stable_output_is_byte_identical(capsys, key):
    group, p, n = key
    code, out, _ = run(capsys, "green", "stable", "--group", group, "--p", p, "--n", n,
                       "--format", "json", "--no-timing")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GREEN_STABLE_DIGESTS[key]


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "v4.grp"
    path.write_text("# klein four\n(1 2)(3 4)\n(1 3)(2 4)\n")
    code, out, _ = run(capsys, "green", "value", "--group-file", str(path),
                       "--p", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["dim"] == 4


def test_malformed_group_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text("(1 2)(3 4)\n(1 2\n")
    code, _, err = run(capsys, "green", "value", "--group-file", str(path), "--p", "2")
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_unknown_group_is_usage_error(capsys):
    code, _, err = run(capsys, "green", "value", "--group", "NOPE", "--p", "2")
    assert code == EXIT_USAGE
    assert "unknown group" in err


def test_budget_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "green", "value", "--group", "C9", "--p", "3",
                       "--budget", "4")
    assert code == EXIT_SCOPE
    assert "required budget: 9" in err


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("GREENKERNEL_BUDGET", "4")
    code, _, err = run(capsys, "green", "value", "--group", "C9", "--p", "3")
    assert code == EXIT_SCOPE


def test_scope_error_nonabelian_sylow(capsys):
    code, _, err = run(capsys, "green", "stable", "--group", "D4", "--p", "2")
    assert code == EXIT_SCOPE
    assert "scope" in err


@pytest.mark.parametrize("argv,message", [
    (("--group", "S4", "--p", "2"), "Sylow 2-subgroup is non-abelian"),
    (("--group", "C2xC4", "--p", "2", "--n", "3"), "required budget: 512"),
])
def test_audit_mackey_stops_on_scope_and_budget_errors(capsys, argv, message):
    # a value out of scope or over budget ends the audit as it ends
    # `green value`, with no report, rather than as a column of fail rows
    code, out, err = run(capsys, "audit", "mackey", *argv)
    assert code == EXIT_SCOPE and out == ""
    assert "scope/budget error" in err and message in err


def test_audit_assumptions_exit_zero(capsys):
    code, out, _ = run(capsys, "audit", "assumptions", "--p", "2", "--format", "json",
                       "--no-timing")
    assert code == EXIT_OK
    data = json.loads(out)
    assert all(r["status"] != "fail" for r in data["checks"])


def test_audit_mackey_s3_exit(capsys):
    # S3 at p=3 has honest MF5 failures on p'-mixing instances -> exit 3
    code, out, _ = run(capsys, "audit", "mackey", "--group", "S3", "--p", "3",
                       "--format", "json", "--no-timing")
    assert code == EXIT_AUDIT
    data = json.loads(out)
    mf5 = [r for r in data["checks"]
           if r["name"] == "MF5" and r["instance"] == "res^S3_C3 ind^S3_C3"]
    assert mf5 and mf5[0]["status"] == "pass-up-to-unit" and mf5[0]["scalar"] == 2
    # audit mackey on C4 is clean -> exit 0
    code, _, _ = run(capsys, "audit", "mackey", "--group", "C4", "--p", "2")
    assert code == EXIT_OK


def test_byte_identical_runs(capsys):
    argv = ["green", "value", "--group", "S3", "--p", "3", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ["audit", "assumptions", "--p", "2", "--battery", "C2,C3",
            "--format", "json", "--no-timing"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_audit_assumptions_warm_equals_cold(capsys, monkeypatch):
    # caches must never change output: a cold assumptions run against one
    # after a mackey audit has filled the value, level and law caches
    import greenkernel.fgl as fgl
    import greenkernel.green as green
    import greenkernel.hopftower as hopftower

    for mod, name in ((fgl, "_fgl_cache"), (hopftower, "_level_cache"),
                      (green, "_value_cache"), (green, "_general_cache"),
                      (green, "_restrict_cache"), (green, "_transfer_cache")):
        monkeypatch.setattr(mod, name, {})
    argv = ["audit", "assumptions", "--p", "2", "--n", "2", "--format", "json", "--no-timing"]
    _, cold, _ = run(capsys, *argv)
    run(capsys, "audit", "mackey", "--group", "A4", "--p", "2", "--n", "2", "--no-timing")
    _, warm, _ = run(capsys, *argv)
    assert warm == cold


@pytest.mark.parametrize("group,p,exit_code,digest", [
    ("S4", "3", EXIT_AUDIT, "b9a8eb77f27f5ba0808e4066c166144774cc1d2dcfe94dfbe16a07d8b7e94bec"),
    ("A4", "2", EXIT_OK, "d7cf844c640019c7341e1be752eccf328651b48705e4a5c8419c616a076ac6a9"),
])
def test_audit_mackey_output_pinned(capsys, group, p, exit_code, digest):
    # digests recorded while every restriction and transfer was built per
    # subgroup pair and each MF5 sum was added term by term
    code, out, _ = run(capsys, "audit", "mackey", "--group", group, "--p", p, "--n", "2",
                       "--format", "json", "--no-timing")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "green", "value", "--group", "V4", "--p", "2",
                       "--format", "json", "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["dim"] == 4


def test_frob_check(capsys):
    code, out, _ = run(capsys, "frob", "check", "--p", "2", "--profile", "4,2",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["is_frobenius"] is True
    assert data["pairing_rank"] == 8
    code, out, _ = run(capsys, "frob", "check", "--p", "3", "--profile", "3",
                       "--covector", "aug", "--format", "json")
    data = json.loads(out)
    assert data["is_frobenius"] is False


def test_frob_gysin(capsys):
    code, out, _ = run(capsys, "frob", "gysin", "--p", "2", "--source-profile", "4",
                       "--target-profile", "2", "--images", "y", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    # alpha(1) = x^2, alpha(y) = x^3 in the monomial basis
    assert data["gysin_matrix"] == [[0, 0], [0, 0], [1, 0], [0, 1]]


def test_usage_error_on_missing_args(capsys):
    code, _, err = run(capsys, "green", "res", "--group", "C4", "--p", "2")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "green")
    assert code == EXIT_USAGE


def test_dispatch_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    assert run(capsys, "fgl", "show", "--p", "2", "--deg", "2")[0] == EXIT_OK
    assert run(capsys, "fgl", "show", "--p", "3", "--deg", "3")[0] == EXIT_OK
    assert run(capsys, "green", "res", "--group", "C4", "--p", "2")[0] == EXIT_USAGE == 1
    assert run(capsys, "fgl", "show", "--p", "2", "--deg", "2")[0] == EXIT_OK
    assert len(builds) == 1


def test_bad_frob_gysin_images(capsys):
    code, _, err = run(capsys, "frob", "gysin", "--p", "2", "--source-profile", "2",
                       "--target-profile", "4", "--images", "y")
    assert code == EXIT_USAGE  # y^2 != 0 in the target: not an algebra map


@pytest.mark.parametrize("argv", [
    ("frob", "check", "--p", "2", "--profile", "4", "--covector", "x^"),
    ("frob", "check", "--p", "2", "--profile", "4", "--covector", "x^a"),
    ("frob", "check", "--p", "2", "--profile", "4", "--covector", "x^-1"),
    ("frob", "gysin", "--p", "2", "--source-profile", "4", "--target-profile", "2",
     "--images", "y^"),
    ("frob", "gysin", "--p", "2", "--source-profile", "4", "--target-profile", "a",
     "--images", "y"),
])
def test_malformed_element_or_profile_is_usage_error(capsys, argv):
    # these once escaped as a ValueError traceback from a bare int()
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("usage error:")


def test_subgroup_outside_group_rejected(capsys):
    code, _, err = run(capsys, "green", "res", "--group", "C4", "--p", "2",
                       "--subgroup", "(1 2)")
    assert code == EXIT_SCOPE


def test_composite_p_rejected(capsys):
    code, _, err = run(capsys, "green", "value", "--group", "C4", "--p", "4")
    assert code == EXIT_USAGE
    assert "prime" in err


@pytest.mark.parametrize("p", ["1", "0", "-3", "9", "91"])
def test_non_prime_p_usage_text(capsys, p):
    code, _, err = run(capsys, "green", "value", "--group", "C4", "--p", p)
    assert code == EXIT_USAGE
    assert err == "usage error: --p must be prime (got %s)\n" % p


def test_frob_check_explicit_covector(capsys):
    # the functional "coefficient of x + coefficient of 1" on F_2[x]/(x^2)
    code, out, _ = run(capsys, "frob", "check", "--p", "2", "--profile", "2",
                       "--covector", "1 + x", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["is_frobenius"] is True and data["form"] == [1, 1]


def _option_strings(parser) -> set:
    out = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _option_strings(sub)
    return out


def test_readme_flags_are_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (line,) = re.findall(r"Flags: `([^`]*)`", readme)
    flags = line.split()
    assert flags and all(f.startswith("--") for f in flags)
    missing = set(flags) - _option_strings(build_parser())
    assert not missing, "README lists flags no subcommand accepts: %s" % sorted(missing)
