"""README.md's examples, run: a README edit that breaks one fails here."""
import contextlib
import io
import itertools
import json
import re
import shlex
from pathlib import Path

from gradleak.cli import build_parser
from gradleak.harness import CSV_FIELDS, ExperimentConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def block(lang: str, where: str = "") -> str:
    """The one fenced block of ``lang`` whose text holds ``where``."""
    found = [text for kind, text in BLOCKS if kind == lang and where in text]
    assert len(found) == 1, f"README has {len(found)} {lang or 'plain'} blocks holding {where!r}"
    return found[0]


def test_the_quick_start_runs_and_gives_the_rmse_it_claims():
    code = block("python", "from gradleak import")
    # "~0.1" is one significant digit, so the claim holds for [0.05, 0.15)
    claim = re.search(r"# ~(\d+\.\d+)", code).group(1)
    half = 5 * 10.0 ** -(len(claim.split(".")[1]) + 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    rmse = float(out.getvalue())
    assert float(claim) - half <= rmse < float(claim) + half, (rmse, claim)


def test_the_config_example_reads():
    ExperimentConfig.from_dict(json.loads(block("json")))


def command_lines() -> list[list[str]]:
    """Each ``gradleak`` line of the Command line block, once with and once
    without each ``[...]`` option, N and X given numbers."""
    argvs = []
    for line in block("bash", "gradleak report").splitlines():
        words = shlex.split(line, comments=True)
        if not words or words[0] != "gradleak":
            continue
        line = " ".join(words).replace(" N]", " 2]").replace(" X]", " 0.5]")
        optional = re.findall(r"\[([^\]]*)\]", line)
        required = re.sub(r"\s*\[[^\]]*\]", "", line).split()[1:]
        for keep in itertools.product((False, True), repeat=len(optional)):
            argvs.append(required + [w for k, opt in zip(keep, optional) if k for w in opt.split()])
    return argvs


def test_every_command_line_example_parses():
    argvs = command_lines()
    assert {argv[0] for argv in argvs} == {"attack", "bound", "dp-calc", "sweep", "report"}
    for argv in argvs:
        assert build_parser().parse_args(argv).command == argv[0]


def test_the_schema_block_is_the_csv_schema():
    assert block("", "config_hash").replace(",", " ").split() == CSV_FIELDS
