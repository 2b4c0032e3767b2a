import json
from fractions import Fraction

import pytest

import coxhull.cli
from coxhull.cli import main
from coxhull.convexity import ChamberSet, CheckReport, _HullTable
from coxhull.formulas import c2_case2_counts


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


def test_check_radius_cap(capsys):
    assert main(["check", "--type", "a2t", "--radius", "9"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    # explicit override allows it (but keep it tiny here by capping lower)
    assert main(["check", "--type", "a2t", "--radius", "2",
                 "--radius-cap", "2"]) == 0


def test_check_counterexample_exits_1(monkeypatch, capsys):
    ce = {"v": "12", "w": "3", "size_uv": 3, "size_vw": 2, "size_uvw": 7}
    monkeypatch.setattr(coxhull.cli, "sweep_triples", lambda *args, **kwargs:
                        CheckReport("a2t", 2, 100, [ce], Fraction(7, 6), 0))
    assert main(["check", "--type", "a2t", "--radius", "2"]) == 1
    out = capsys.readouterr().out
    assert "1 counterexamples, max ratio 7/6" in out
    assert "  counterexample: v='12' w='3' 3*2 < 7\n" in out


def test_check_hull_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    hull = _HullTable.hull

    def drop_one(self, points):
        return ChamberSet(hull(self, points).chambers[1:])

    monkeypatch.setattr(_HullTable, "hull", drop_one)
    report = tmp_path / "report.json"
    assert main(["check", "--type", "c2t", "--radius", "3",
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: hull algorithms disagree on c2t")
    assert err.count("\n") == 1
    assert not report.exists()
    assert list(tmp_path.glob("*.tmp.*")) == []


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
    def paper_counts(params):
        a, b, x, y = params.a, params.b, params.x, params.y
        size_uv, _, size_uvw = c2_case2_counts(params)
        return size_uv, 3 * (x - a + 3) + (y - b - 2) * (x - a + 5), size_uvw

    monkeypatch.setattr(coxhull.cli, "c2_case2_counts", paper_counts)
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
    assert "term-for-term match with pinned expansion: ok" in out
    assert "all coefficients strictly positive: ok" in out
    assert "corrected difference expansion (16 terms)" in out
    assert "term-for-term match with pinned corrected expansion: ok" in out
    assert "all corrected coefficients strictly positive: ok" in out
    assert out.strip().endswith("PASS")


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
