"""The command-line front end: reports, determinism, exit codes."""

import json

import pytest

from squaredisc.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _verdict(report, name):
    for v in report["verdicts"]:
        if v.get("name") == name:
            return v
    raise KeyError(name)


def test_classify_quartic_square(capsys):
    code, report = _run(capsys, "classify", "[-1, 0]")
    assert code == 0
    assert _verdict(report, "disc")["value"] == "64"
    assert _verdict(report, "square_disc_direct")["value"] is True
    assert _verdict(report, "square_disc_by_j")["value"]["branch"] == "j-1728"
    assert _verdict(report, "cm")["value"] is True
    assert report["counterexamples"] == []


def test_classify_j_zero(capsys):
    code, report = _run(capsys, "classify", "[0, 1]")
    assert code == 0
    assert _verdict(report, "disc")["value"] == "-432"
    assert _verdict(report, "square_disc_direct")["value"] is False
    assert _verdict(report, "cm")["value"] is True


def test_classify_general_model(capsys):
    code, report = _run(capsys, "classify", "[0,-1,1,0,0]")
    assert code == 0
    assert _verdict(report, "disc")["value"] == "-11"
    assert _verdict(report, "disc_squarefree_part")["value"] == "-11"
    assert _verdict(report, "square_disc_direct")["value"] is False


def test_classify_singular_curve_reports_error(capsys):
    code, report = _run(capsys, "classify", "[0, 0]")
    assert code == 1
    assert "error" in report["counterexamples"][0]["reason"]


def test_family_generic(capsys):
    code, report = _run(capsys, "family", "--N", "2", "--t", "3")
    assert code == 0
    assert _verdict(report, "j")["value"] == "35152/9"  # j_2(36) = 52^3/36
    assert _verdict(report, "disc_sqrt")["ok"] is True
    assert _verdict(report, "isogeny_oracle")["value"] is True


def test_family_routes_1728(capsys):
    code, report = _run(capsys, "family", "--N", "2", "--t", "1")
    assert code == 0
    assert _verdict(report, "j")["value"] == "1728"
    assert _verdict(report, "branch")["value"] == "j-1728"
    assert _verdict(report, "model")["value"] == ["-1", "0"]
    assert _verdict(report, "disc_sqrt")["value"] == "8"
    assert _verdict(report, "isogeny_oracle")["value"] is True


def test_family_velu_oracle(capsys):
    code, report = _run(capsys, "family", "--N", "4", "--t", "2")
    assert code == 0
    assert _verdict(report, "isogeny_oracle")["kind"] == "velu-chain"
    assert _verdict(report, "isogeny_oracle")["value"] is True


def test_family_rejects_bad_level():
    with pytest.raises(SystemExit):
        main(["family", "--N", "5", "--t", "1"])


def test_family_cusp_is_an_error(capsys):
    code, report = _run(capsys, "family", "--N", "2", "--t", "0")
    assert code == 1
    assert "cusp" in report["counterexamples"][0]["reason"]


def test_zero_denominator_on_the_command_line_is_an_error(capsys):
    for argv in (["classify", "[1/0, 2]"], ["family", "--N", "2", "--t", "1/0"]):
        code, report = _run(capsys, *argv)
        assert code == 1, argv
        assert report["counterexamples"][0]["reason"].startswith("error: zero denominator"), argv


def test_search_reports(capsys):
    code, report = _run(capsys, "search", "--N", "10", "--which", "C", "--height", "30")
    assert code == 0
    points = report["verdicts"][0]["points"]
    assert len(points) == 4
    code, report = _run(capsys, "search", "--N", "6", "--which", "X", "--height", "12")
    assert report["verdicts"][0]["count"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "thm1", "--samples", "-2"),
        ("verify", "--suite", "thm1", "--samples", "0"),
        ("verify", "--suite", "tables-C", "--height", "0"),
        ("search", "--N", "10", "--height", "-3"),
        ("search", "--N", "10", "--height", "ten"),
    ],
)
def test_non_positive_samples_and_heights_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_verify_exit_status_and_determinism(capsys):
    code, report1 = _run(capsys, "verify", "--suite", "congruences")
    assert code == 0
    assert all(v["ok"] for v in report1["verdicts"])
    code, report2 = _run(capsys, "verify", "--suite", "congruences")
    assert report1 == report2
    assert report1["timing"] is None


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "everything"])


def test_verify_bad_data_dir_exits_nonzero(capsys, tmp_path):
    code, report = _run(capsys, "verify", "--suite", "congruences", "--data-dir", str(tmp_path))
    assert code == 1
    assert report["counterexamples"]


def test_timing_flag(capsys):
    code, report = _run(capsys, "verify", "--suite", "finite-cases", "--timing")
    assert code == 0
    assert isinstance(report["timing"], float)


def test_human_rendering(capsys):
    code = main(["classify", "[-1, 0]", "--human"])
    out = capsys.readouterr().out
    assert code == 0
    assert "command: classify" in out
    assert "counterexamples: none" in out


def test_calls_in_a_row_match_calls_one_at_a_time(capsys):
    # main reuses one parser; no call may leave state behind for the next
    calls = [
        ["classify", "[-1, 0]", "--human"],
        ["classify", "[0,-1,1,0,0]"],
        ["family", "--N", "2", "--t", "3", "--human"],
        ["verify", "--suite", "congruences"],
        ["classify", "[-1, 0]"],
        ["search", "--N", "10", "--which", "C", "--height", "30", "--human"],
        ["family", "--N", "2", "--t", "3"],
        ["search", "--N", "6", "--which", "X", "--height", "12"],
    ]

    def run(argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    in_a_row = [run(argv) for argv in calls]
    one_at_a_time = []
    for argv in calls:
        build_parser.cache_clear()
        one_at_a_time.append(run(argv))
    assert in_a_row == one_at_a_time
    assert build_parser() is build_parser()


def test_missing_family_is_reported_without_quotes(capsys):
    code, report = _run(capsys, "search", "--N", "99")
    assert code == 1
    assert report["counterexamples"] == [{"reason": "error: no parametrized family for N = 99"}]
