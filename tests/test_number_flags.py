"""Property test for the numeric flags: each one either parses a plain decimal
number to a finite value inside its bound or is a usage error (exit 2);
nothing else escapes `parse_args`, whatever text it is given."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pbmf import cli  # noqa: E402


def _finite_float(v):
    return type(v) is float and math.isfinite(v)


# What each number parser promises, written out apart from cli.py.
BOUNDS = {
    cli._positive_int: lambda v: type(v) is int and v >= 1,
    cli._nonneg_int: lambda v: type(v) is int and v >= 0,
    cli._positive_float: lambda v: _finite_float(v) and v > 0,
    cli._nonneg_float: lambda v: _finite_float(v) and v >= 0,
    cli._fraction: lambda v: _finite_float(v) and 0 < v < 1,
    cli._beta_list: lambda v: bool(v) and all(_finite_float(b) and b >= 0 for b in v),
}
NON_NUMERIC_TYPES = {None, cli._delimiter, cli._algorithm_list}
# The smallest valid argv of each subcommand.
REQUIRED = {
    "train": ["--input", "r.dat", "--algorithm", "cosine_mf", "--output", "m.pbmf"],
    "evaluate": ["--input", "r.dat", "--model", "m.pbmf"],
    "benchmark": ["--input", "r.dat"],
}

PARSER, SUBS = cli.build_parser()
FLAGS = [(command, action.option_strings[0], action.dest, action.type)
         for command, sub in SUBS.items() for action in sub._actions
         if action.type in BOUNDS]

TEXTS = st.one_of(st.floats().map(repr), st.integers().map(str), st.text())


def test_every_flag_type_is_classified():
    assert set(SUBS) == set(REQUIRED)
    for sub in SUBS.values():
        for action in sub._actions:
            assert action.type in BOUNDS or action.type in NON_NUMERIC_TYPES, action.dest
    assert len(FLAGS) == 27


@pytest.mark.parametrize("command, flag, dest, parse", FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _, _ in FLAGS])
@settings(max_examples=25, deadline=None)
@given(text=TEXTS)
# Always tried, whatever is drawn: the non-finite floats, an int too large
# to become a float, and PEP 515 digit separators, which int() and float()
# read ("3_2" as 32, "0_1" as 1.0) but a plain decimal number never has.
@example(text="nan")
@example(text="inf")
@example(text="-inf")
@example(text="9" * 400)
@example(text="3_2")
@example(text="0_1")
def test_numeric_flag_is_bounded_or_usage_error(command, flag, dest, parse, text):
    try:
        args = PARSER.parse_args([command, *REQUIRED[command], f"{flag}={text}"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert "_" not in text and BOUNDS[parse](getattr(args, dest)), text


def test_digit_separator_in_config_is_usage_error(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("k = 3_2\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["benchmark", "--input", "r.dat", "--config", str(tmp_path / "run.cfg")])
    assert exc.value.code == 2
    assert "'3_2'" in capsys.readouterr().err


# Values argparse alone takes for option strings, given as the next token.
SPACED_NEGATIVES = ["-1e-3", "-inf", "-1e5"]


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flag, _, _ in FLAGS],
                         ids=[f"{command}{flag}" for command, flag, _, _ in FLAGS])
@pytest.mark.parametrize("text", SPACED_NEGATIVES)
def test_spaced_negative_value_gets_the_range_error(command, flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED[command], flag, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected " in err and f"got {text!r}" in err, err


def test_option_string_is_not_taken_for_a_value(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", *REQUIRED["train"], "--beta", "--k", "3"])
    assert exc.value.code == 2
    assert "argument --beta: expected one argument" in capsys.readouterr().err


def _shortest_unique_prefix(command, flag):
    """The shortest abbreviation of `flag` that argparse resolves to it alone."""
    option_strings = [s for action in SUBS[command]._actions for s in action.option_strings]
    for end in range(3, len(flag)):
        if sum(s.startswith(flag[:end]) for s in option_strings) == 1:
            return flag[:end]
    return None


ABBREVIATED = [(command, flag, _shortest_unique_prefix(command, flag))
               for command, flag, _, _ in FLAGS
               if _shortest_unique_prefix(command, flag) is not None]


@pytest.mark.parametrize("command, flag, prefix", ABBREVIATED,
                         ids=[f"{command}{prefix}" for command, _, prefix in ABBREVIATED])
def test_abbreviated_flag_with_spaced_negative_gets_the_range_error(command, flag, prefix,
                                                                   capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED[command], prefix, "-inf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected " in err and "got '-inf'" in err, err


@pytest.mark.parametrize("flag", ["--beta", "--be"])
@pytest.mark.parametrize("text, bad", [("-1,0.5", "-1"), ("-inf,1", "-inf"), ("0.5,-1e-3", "-1e-3")])
def test_spaced_beta_list_starting_with_minus_gets_the_range_error(flag, text, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["benchmark", *REQUIRED["benchmark"], flag, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --beta: expected a number >= 0, got {bad!r}" in err, err


@pytest.mark.parametrize("flag", ["--be", "--beta"])
@pytest.mark.parametrize("text", ["-1,--k", "-1,"])
def test_list_with_a_non_number_part_is_not_taken_for_a_value(flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["benchmark", *REQUIRED["benchmark"], flag, text])
    assert exc.value.code == 2
    assert "argument --beta: expected one argument" in capsys.readouterr().err


def test_abbreviated_option_string_is_not_taken_for_a_value(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", *REQUIRED["train"], "--be", "--k", "3"])
    assert exc.value.code == 2
    assert "argument --beta: expected one argument" in capsys.readouterr().err


def test_ambiguous_abbreviation_is_not_joined(capsys):
    # --h could be --help or --header; argparse names both.
    with pytest.raises(SystemExit) as exc:
        cli.main(["benchmark", *REQUIRED["benchmark"], "--h", "-3"])
    assert exc.value.code == 2
    assert "ambiguous option: --h could match --help, --header" in capsys.readouterr().err
