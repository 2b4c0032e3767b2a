import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

import coxhull.cli
import coxhull.convexity
import coxhull.propcheck
from coxhull.cli import main
from coxhull.convexity import CheckReport


def test_check_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["check", "--type", "a2t", "--radius", "3",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert set(data) == {"type", "radius", "triples_checked", "counterexamples",
                         "max_ratio", "wall_clock_ms"}
    assert data["type"] == "a2t"
    assert data["radius"] == 3
    assert data["counterexamples"] == []
    assert set(data["max_ratio"]) == {"num", "den"}
    out = capsys.readouterr().out
    assert "0 counterexamples" in out


def test_check_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--type", "a2t", "--radius", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_check_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--type", "a2t", "--radius", "2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_check_radius_cap(capsys):
    assert main(["check", "--type", "a2t", "--radius", "9"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    assert main(["check", "--type", "a2t", "--radius", "-1"]) == 2
    assert capsys.readouterr().err == "error: radius must be non-negative\n"
    # explicit override allows it (but keep it tiny here by capping lower)
    assert main(["check", "--type", "a2t", "--radius", "2",
                 "--radius-cap", "2"]) == 0


def test_check_counterexample_exits_1(monkeypatch, capsys):
    ce = {"v": "12", "w": "3", "size_uv": 3, "size_vw": 2, "size_uvw": 7}
    monkeypatch.setattr(coxhull.cli, "sweep_triples", lambda *args, **kwargs:
                        CheckReport("a2t", 2, 100, [ce], 0))
    assert main(["check", "--type", "a2t", "--radius", "2"]) == 1
    out = capsys.readouterr().out
    assert "1 counterexamples, max ratio 7/6" in out
    assert "  counterexample: v='12' w='3' 3*2 < 7\n" in out


def test_check_hull_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    # Drop the lowest bit of the table's Conv(u, v, w), its member first in
    # barycenter order.
    hull_masks = coxhull.convexity._hull_masks

    def drop_one(*args):
        pair, triple = hull_masks(*args)
        return pair, triple & triple - 1

    monkeypatch.setattr(coxhull.convexity, "_hull_masks", drop_one)
    report = tmp_path / "report.json"
    assert main(["check", "--type", "c2t", "--radius", "3",
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: weak-order hull disagrees on c2t")
    assert err.count("\n") == 1
    assert not report.exists()
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_check_empty_table_hull_exits_3(monkeypatch, capsys):
    hull_masks = coxhull.convexity._hull_masks
    monkeypatch.setattr(coxhull.convexity, "_hull_masks",
                        lambda *args: (hull_masks(*args)[0], 0))
    assert main(["check", "--type", "a2t", "--radius", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: weak-order hull disagrees on a2t")
    assert "table-only=[]" in err


def test_check_internal_fault_exits_3(tmp_path, monkeypatch, capsys):
    row_sizes = coxhull.convexity._row_sizes
    monkeypatch.setattr(coxhull.convexity, "_row_sizes",
                        lambda *args: [sizes[:-1] for sizes in row_sizes(*args)])
    report = tmp_path / "report.json"
    assert main(["check", "--type", "a2t", "--radius", "2",
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sweep row 0 has ")
    assert err.count("\n") == 1
    assert not report.exists()
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_check_lost_triple_size_exits_3(tmp_path, monkeypatch, capsys):
    row_sizes = coxhull.convexity._row_sizes

    def lost(*args):
        vws, uvws = row_sizes(*args)
        return vws, uvws[:-1]

    monkeypatch.setattr(coxhull.convexity, "_row_sizes", lost)
    report = tmp_path / "report.json"
    assert main(["check", "--type", "a2t", "--radius", "2",
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sweep row 0 has ") and "sizes, expected" in err
    assert not report.exists()


@pytest.mark.parametrize("args", [
    ["check", "--type", "a2t", "--radius", "2", "--report", ""],
    ["hull", "--type", "a2t", "--v", "12", "--svg", ""]])
def test_empty_output_path_refused_before_any_work(monkeypatch, tmp_path, capsys, args):
    def unreached(*args, **kwargs):
        pytest.fail("work ran before the empty path was refused")

    monkeypatch.setattr(coxhull.cli, "sweep_triples", unreached)
    monkeypatch.setattr(coxhull.cli, "build_group", unreached)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {args[-2]} wants a file path, got ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["check", "--type", "g2t", "--radius", "24", "--radius-cap", "24", "--report"],
    ["hull", "--type", "a2t", "--v", "12", "--svg"]])
@pytest.mark.parametrize("target", ["missing/out", "folder"])
def test_unusable_output_path_refused_before_any_work(monkeypatch, tmp_path, capsys,
                                                      args, target):
    def unreached(*args, **kwargs):
        pytest.fail("work ran before the output path was refused")

    monkeypatch.setattr(coxhull.cli, "sweep_triples", unreached)
    monkeypatch.setattr(coxhull.cli, "build_group", unreached)
    (tmp_path / "folder").mkdir()
    path = str(tmp_path / target)
    assert main([*args, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {args[-1]} ") and path in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*")] == ["folder"]


def test_check_interrupt_exits_2(tmp_path, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(coxhull.cli, "sweep_triples", interrupted)
    report = tmp_path / "report.json"
    try:
        code = main(["check", "--type", "a2t", "--radius", "2", "--report", str(report)])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == 2
    assert capsys.readouterr().err == "error: interrupted\n"
    assert list(tmp_path.iterdir()) == []


def test_hull_command(capsys):
    assert main(["hull", "--type", "a2t", "--u", "", "--v", "121"]) == 0
    out = capsys.readouterr().out
    assert "d(u,v)=3" in out
    assert "|Conv(u,v)|=6" in out

    assert main(["hull", "--type", "i2inf", "--u", "", "--v", "1212"]) == 0
    out = capsys.readouterr().out
    assert "|Conv(u,v)|=5" in out

    assert main(["hull", "--type", "g2t"]) == 0
    out = capsys.readouterr().out
    assert "|Conv(u,v)|=1 |Conv(v,w)|=1 |Conv(u,w)|=1 |Conv(u,v,w)|=1" in out


def test_hull_bad_word(capsys):
    assert main(["hull", "--type", "a2t", "--u", "4"]) == 2
    assert "digits 1..3" in capsys.readouterr().err
    assert main(["hull", "--type", "i2inf", "--u", "3"]) == 2


@pytest.mark.parametrize("word", ["\u00b2", "\u0661\u0662"])
def test_hull_rejects_non_ascii_digits(capsys, word):
    # Superscript two and Arabic-Indic one-two are str.isdigit() digits.
    assert main(["hull", "--type", "a2t", "--v", word]) == 2
    err = capsys.readouterr().err
    assert err == f"error: word {word!r}: expected digits 1..3 only\n"


def test_hull_svg_output(tmp_path, capsys):
    svg = tmp_path / "hull.svg"
    assert main(["hull", "--type", "a2t", "--u", "", "--v", "121",
                 "--w", "23", "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    out = capsys.readouterr().out
    assert "filled polygons" in out


def test_formula_a2_verify(capsys):
    assert main(["formula", "--type", "a2t", "--xy", "7,3", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "23" in out and "equal: yes" in out


def test_formula_i2inf(capsys):
    assert main(["formula", "--type", "i2inf", "--d", "5"]) == 0
    assert "6" in capsys.readouterr().out


def test_formula_c2_unverified(capsys):
    assert main(["formula", "--type", "c2t", "--abxy", "2,2,5,4"]) == 0
    out = capsys.readouterr().out
    assert "size_uv=4 size_vw=19 size_uvw=26" in out
    assert "76 >= 26" in out


def test_formula_c2_verify_flags_middle_count(capsys, monkeypatch):
    # The closed forms match the enumerated hulls, so --verify passes.
    assert main(["formula", "--type", "c2t", "--abxy", "2,2,5,4",
                 "--verify"]) == 0
    out = capsys.readouterr().out
    assert "size_uv=4 (equal: yes)" in out
    assert "size_vw=19 (equal: yes)" in out
    assert "size_uvw=26 (equal: yes)" in out

    # The paper's middle form is one chamber short of the enumerated hull;
    # --verify reports the mismatch and exits nonzero.
    monkeypatch.setattr(coxhull.cli, "c2_case2_counts",
                        lambda params: coxhull.propcheck.c2_paper_forms(*params))
    assert main(["formula", "--type", "c2t", "--abxy", "2,2,5,4",
                 "--verify"]) == 1
    out = capsys.readouterr().out
    assert "size_vw=18 size_uvw=26" in out
    assert "size_uv=4 (equal: yes)" in out
    assert "size_vw=19 (equal: NO)" in out
    assert "size_uvw=26 (equal: yes)" in out


def test_formula_constraint_errors(capsys):
    assert main(["formula", "--type", "a2t", "--xy", "0,2"]) == 2
    capsys.readouterr()
    assert main(["formula", "--type", "c2t", "--abxy", "3,2,5,4"]) == 2
    capsys.readouterr()
    assert main(["formula", "--type", "a2t"]) == 2


@pytest.mark.parametrize("args, message", [
    (["--type", "g2t"], "no closed forms for type g2t"),
    (["--type", "i2inf"], "--d N is required for i2inf"),
    (["--type", "c2t"], "--abxy A,B,X,Y is required for c2t"),
    (["--type", "a2t", "--xy", "7"], "--xy wants 2 comma-separated integers, got '7'"),
    (["--type", "a2t", "--xy", "7,a"], "--xy wants integers, got '7,a'"),
    (["--type", "i2inf", "--d", "-1"], "distance must be non-negative"),
])
def test_formula_usage_refused(args, message, capsys):
    assert main(["formula", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("code, option, owner", [
    ("a2t", ["--abxy", "1,2,3,4"], "c2t"), ("c2t", ["--xy", "7,3"], "a2t"),
    ("g2t", ["--d", "5"], "i2inf"), ("i2inf", ["--xy", "7,3"], "a2t")])
def test_formula_refuses_another_types_option(capsys, code, option, owner):
    # Each type's own option is given too where it has one, so only the
    # foreign option is wrong.
    own = {"a2t": ["--xy", "7,3"], "c2t": ["--abxy", "2,2,5,4"], "i2inf": ["--d", "5"]}
    assert main(["formula", "--type", code, *own.get(code, []), *option]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {option[0]} is an option of {owner}, not of {code}\n"


def test_prove_a2(capsys):
    assert main(["prove", "a2", "--box", "10"]) == 0
    out = capsys.readouterr().out
    assert "decomposition identity: ok" in out
    assert "factorization identity: ok" in out
    assert "0 violations" in out
    assert out.strip().endswith("PASS")


def test_prove_c2(capsys):
    assert main(["prove", "c2", "--box", "20"]) == 0
    out = capsys.readouterr().out
    assert "16 terms" in out
    assert "16*k*n*p*q" in out
    assert ("\n  16*k*n*p*q + 32*k*n*p + 32*k*n*q + 16*k*p*q + 32*n*p*q + 36*k*n"
            " + 32*k*p + 28*k*q + 60*n*p + 64*n*q + 12*p*q + 32*k + 68*n + 24*p"
            " + 20*q + 22\n") in out
    assert ("\n  16*k*n*p*q + 32*k*n*p + 32*k*n*q + 16*k*p*q + 32*n*p*q + 40*k*n"
            " + 32*k*p + 28*k*q + 60*n*p + 64*n*q + 12*p*q + 36*k + 76*n + 24*p"
            " + 20*q + 26\n") in out
    assert "term-for-term match with pinned expansion: ok" in out
    assert "all coefficients strictly positive: ok" in out
    assert "corrected difference expansion (16 terms)" in out
    assert "term-for-term match with pinned corrected expansion: ok" in out
    assert "all corrected coefficients strictly positive: ok" in out
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize("which, box", [("a2", "-3"), ("a2", "0"), ("c2", "4")])
def test_prove_box_admitting_no_tuple_exits_2(capsys, which, box):
    assert main(["prove", which, "--box", box]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("which, box", [("a2", "1"), ("c2", "5")])
def test_prove_least_box_passes(capsys, which, box):
    assert main(["prove", which, "--box", box]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_prove_c2_wrong_pin_fails(monkeypatch, capsys):
    paper = coxhull.propcheck.case2_expected_difference
    monkeypatch.setattr(coxhull.propcheck, "case2_expected_difference",
                        lambda k, n, p, q: paper(k, n, p, q) + k * q)
    with pytest.raises(coxhull.propcheck.MismatchReport) as exc:
        coxhull.propcheck.verify_c2_expansion()
    assert exc.value.differences == [("k*q", 29, 28)]
    assert main(["prove", "c2", "--box", "5"]) == 1
    out = capsys.readouterr().out
    assert "expansion mismatch" in out
    assert "k*q: expected 29, got 28" in out
    assert out.strip().endswith("FAIL")


def test_prove_c2_box_violation_fails(monkeypatch, capsys):
    # The triple side one chamber larger than the product of the pair
    # sides: every tuple in the box violates the inequality.
    paper = coxhull.propcheck.c2_paper_forms

    def broken(a, b, x, y):
        size_uv, size_vw, _ = paper(a, b, x, y)
        return size_uv, size_vw, size_uv * size_vw + 1

    monkeypatch.setattr(coxhull.propcheck, "c2_paper_forms", broken)
    assert main(["prove", "c2", "--box", "5"]) == 1
    out = capsys.readouterr().out
    assert "brute-force box <= 5: 6 violations" in out
    assert "  violation at (a,b,x,y)=(2,2,5,3): 40 < 41\n" in out
    assert out.strip().endswith("FAIL")


def test_prove_a2_box_violation_fails(monkeypatch, capsys):
    sides = coxhull.propcheck.a2_sides_forms

    def broken(x, y, a, b):
        lhs, _ = sides(x, y, a, b)
        return lhs, lhs + 1

    monkeypatch.setattr(coxhull.propcheck, "a2_sides_forms", broken)
    assert main(["prove", "a2", "--box", "1"]) == 1
    out = capsys.readouterr().out
    assert "brute-force box <= 1: 2 violations" in out
    assert "  violation at (x,y,a,b)=(0,1,1,1): 6 < 7\n" in out
    assert out.strip().endswith("FAIL")


def test_failed_report_write_leaves_no_temp_and_old_report(tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.json"
    report.write_text("previous report\n")

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(coxhull.cli.os, "fsync", fail)
    assert main(["check", "--type", "a2t", "--radius", "2",
                 "--report", str(report)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert report.read_text() == "previous report\n"
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_interrupted_report_write_leaves_no_temp_and_old_report(tmp_path, monkeypatch,
                                                                capsys):
    report = tmp_path / "report.json"
    report.write_text("previous report\n")

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(coxhull.cli.os, "replace", interrupted)
    assert main(["check", "--type", "a2t", "--radius", "2",
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == "error: interrupted\n"
    assert report.read_text() == "previous report\n"
    assert list(tmp_path.glob("*.tmp.*")) == []


@pytest.mark.parametrize("target", ["missing/report.json", "folder"])
def test_failed_write_names_the_given_path(tmp_path, target):
    (tmp_path / "folder").mkdir()
    path = str(tmp_path / target)
    with pytest.raises(OSError) as exc:
        coxhull.cli._write_atomic(path, "report\n")
    assert str(exc.value).startswith(f"{path}: ") and ".tmp." not in str(exc.value)
    assert [p.name for p in tmp_path.rglob("*")] == ["folder"]


# -- golden outputs -------------------------------------------------------------
# sha256 digests of outputs that depend on chamber order; they are unchanged
# since integer order keys replaced the Fraction barycenter as sort key.

HULL_GOLDEN = {
    "a2t": (("", "121", "2313"),
            "f27fd8a3b7bb801ff8399e16f67173320232865133abf823f8ef551f5b9a0a55",
            "c7e3ac48fc3d52e1bcbd8a48175fc2d011678448c271420493fd363012be1d48"),
    "c2t": (("3", "1212", "2323"),
            "e7d237e7bcb6c2a1a1d466ee3d29071fcb3d4971de90f1532d2c09b9eb762d2c",
            "edc542c6fbc8e99339e2a12043369e88f4a2d5f29993c889ff0809955675fdbc"),
    "g2t": (("2", "121312", "3213"),
            "13b78dfb394e49badd5b54b4c1074e36f7719ea48f517b711b2164ded041f0ab",
            "24b0c94aa5a14ce60a3e6a2d33beea7079d9c98c6c3e8afc00ddf1b8d6ac2e03"),
}

CHECK_GOLDEN = {
    "a2t": "8e7af54a1320d3a6eea04d9dfc7149893d7603c09b5c4b3eb89e65c720d8a53b",
    "c2t": "23c043a106128c71d1bd20a2ba28f9794479647b7394320bc6745243188c8128",
    "g2t": "ba86481176951b9eb10b3868f7e36bd6c7996a5ac06b686c99196211012efbc4",
    "i2inf": "9298b1569c7a5b5d5d222333691510313858ce68e7137ae2cec64b2c42484658",
}

# The closed-form commands, with digests of their stdout.  (4,3) has x+y
# odd, so it is counted from a downward origin chamber.
FORMULA_GOLDEN = {
    "formula --type a2t --xy 7,3 --verify":
        "622554a7f29fc36917a71818d6074f77d0747f8eaaf8f36cfbc286ac0fc0d97b",
    "formula --type a2t --xy 4,3 --verify":
        "cffa617fa9ab5197f783eb1aea276cb725bb1b47abf658c2482b80e96a0b82c2",
    "formula --type c2t --abxy 2,2,5,4 --verify":
        "478f7d6bcc2e03535b1ffa838fc90ef623e13303abc5de3e94c4779ef6208445",
    "formula --type i2inf --d 5 --verify":
        "48d0cbc7f6dd6ac044696c7f70e7724dd90947a1d9f8b11652dc3f0dcb0dd449",
    "prove a2": "c2005a0d1ff7e1fd7801dd9fed65ba0b27893d9b946892f7e163977e93ad2269",
    "prove c2": "eba8c3d1752acb796da1019603b1831cccc2945d84c0556f46d08f0d40fb1af8",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("code", sorted(HULL_GOLDEN))
def test_hull_outputs_golden(code, tmp_path, capsys):
    (u, v, w), stdout_digest, svg_digest = HULL_GOLDEN[code]
    words = ["--type", code, "--u", u, "--v", v, "--w", w]
    assert main(["hull", *words]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == stdout_digest
    svg = tmp_path / "hull.svg"
    assert main(["hull", *words, "--svg", str(svg)]) == 0
    assert _sha256(svg.read_bytes()) == svg_digest


@pytest.mark.parametrize("code", sorted(CHECK_GOLDEN))
def test_check_report_golden(code, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["check", "--type", code, "--radius", "8", "--report", str(path)]) == 0
    report = json.loads(path.read_text())
    del report["wall_clock_ms"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert _sha256(text.encode()) == CHECK_GOLDEN[code]


@pytest.mark.parametrize("command", sorted(FORMULA_GOLDEN))
def test_formula_outputs_golden(command, capsys):
    assert main(command.split()) == 0
    assert _sha256(capsys.readouterr().out.encode()) == FORMULA_GOLDEN[command]


@pytest.mark.parametrize("flag", ["--radius"])
def test_coarsening_diagnostics_rejects_negative_counts(flag, monkeypatch, capsys):
    script = Path(__file__).parents[1] / "scripts" / "coarsening_diagnostics.py"
    main_of_script = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", [script.name, flag, "-1"])
    with pytest.raises(SystemExit) as exit_:
        main_of_script()
    assert exit_.value.code == 2
    assert f"{flag} must be non-negative" in capsys.readouterr().err
