"""The package re-exports exactly the submodules' public names, every public
function that takes n refuses the same inputs, and the README's library
example and commands run on them as written."""

import contextlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htbounds
from htbounds import bounds, distributions, experiments, numerics, oracle
from htbounds.cli import cli_main

SUBMODULES = (bounds, distributions, experiments, numerics, oracle)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_union_of_submodule_exports():
    # A name added to a submodule's __all__ reaches the package, and a
    # helper retired from one cannot linger there.
    want = [name for m in SUBMODULES for name in m.__all__] + ["__version__"]
    assert len(set(want)) == len(want), "a public name is declared by two submodules"
    assert sorted(htbounds.__all__) == sorted(want)


def test_every_public_name_is_a_submodule_export():
    for m in SUBMODULES:
        for name in m.__all__:
            assert getattr(htbounds, name) is getattr(m, name), f"htbounds.{name}"


BERN, GAUSS = distributions.BernoulliPair(0.5, 0.6), distributions.GaussianPair(0.0, 1.0)
# A log budget's domain: the values it refuses, the refusal's message, and
# values at or near its ends, which it takes
OPEN = ((0.0, math.nan, math.inf, -math.inf, "0.1"), "must be finite and < 0",
        (-5e-324, -sys.float_info.max))
CLOSED = ((5e-324, math.nan, math.inf, "0.1"), r"must lie in \[-inf, 0\]", (0.0, -math.inf))
# the phase achievability bound's: values inside its window -D < log eps / n < 0 at n = 10
WINDOW = (OPEN[0], OPEN[1], (-1e-300, -0.2))
LOG = object()
# Every public function that takes n, by name: its argument before n, those after it (LOG for
# its log eps, or log alpha for the threshold bound), and that argument's domain
TAKES_N = {
    "renyi_converse": (BERN, (LOG,), OPEN),
    "phase_transition_achievability": (BERN, (LOG,), WINDOW),
    "renyi_achievability_at_threshold": (BERN, (0.0, LOG), CLOSED),
    "fano_bound": (BERN, (LOG,), OPEN),
    "hellinger_bound": (BERN, (LOG,), OPEN),
    "berry_esseen_bound": (BERN, (LOG,), OPEN),
    "smoothing_out_bound": (GAUSS, (LOG,), OPEN),
    "np_exact_bernoulli": (BERN, (LOG,), CLOSED),
    "np_exact_discrete": (BERN, (LOG,), CLOSED),
    "np_exact_gaussian": (GAUSS, (LOG,), OPEN),
    "eps_at": (bounds.Constant(0.1), (), None),
}


def call(name, n, log_budget=-0.1):
    # the default budget lies in every row's domain at n = 10
    first, rest, _ = TAKES_N[name]
    return getattr(htbounds, name)(first, n, *(log_budget if a is LOG else a for a in rest))


def test_refusal_table_holds_every_function_that_takes_n():
    functions = [getattr(htbounds, name) for name in htbounds.__all__]
    assert sorted(TAKES_N) == sorted(f.__name__ for f in functions if inspect.isfunction(f)
                                     and "n" in inspect.signature(f).parameters)


@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_refuses_bad_n(name):
    for n in (0, -1, 2.5, True):
        with pytest.raises(numerics.DomainError, match=rf"^n must be an integer >= 1, got {n!r}$"):
            call(name, n)
    with pytest.raises(numerics.DomainError, match="^n must be at most the largest float"):
        call(name, 10**400)


@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_takes_a_numpy_integer_n_as_the_int(name):
    assert call(name, np.int64(10)) == call(name, 10)


@pytest.mark.parametrize("name", sorted(name for name, row in TAKES_N.items() if row[2]))
def test_refuses_log_budgets_only_outside_the_domain(name):
    refused, message, ends = TAKES_N[name][2]
    for x in refused:
        with pytest.raises(numerics.DomainError, match=message):
            call(name, 10, x)
    for x in ends:
        call(name, 10, x)


# The far ends of each family: a Bernoulli parameter at 1e-300, a Gaussian
# separation of 1e153 (whose square is near the float range's end), K = 3, and
# an identical pair, with no log-likelihood ratio to divide by
FAR_PAIRS = (distributions.BernoulliPair(1e-300, 0.999), distributions.GaussianPair(0.0, 1e153),
             distributions.FiniteDiscretePair((1e-300, 0.5, 0.5), (0.5, 1e-300, 0.5)),
             distributions.FiniteDiscretePair((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)),
             distributions.FiniteDiscretePair((0.2, 0.3, 0.5), (0.2, 0.3, 0.5)))
# Positive floats, log-uniform from the least subnormal to the largest float, both ends included
MAGNITUDES = st.one_of(st.sampled_from([5e-324, sys.float_info.max]),
                       st.floats(min_value=-323.3, max_value=308.25).map(lambda u: 10.0**u))
# What a refusal names: n, the log budget or rate, the pair's family, or the type ceiling
NAMED = re.compile(r"^n must|log_eps|log_alpha|rate c|requires a \w+Pair|"
                   r"finite-support pair|ceiling is")


@st.composite
def far_calls(draw):
    # a TAKES_N row at a far-end pair, n log-uniform up to 10^300, and a log
    # budget anywhere in its domain; eps_at takes an exponential regime's rate c > 0
    name = draw(st.sampled_from(sorted(TAKES_N)))
    _, rest, domain = TAKES_N[name]
    pair, n = draw(st.sampled_from(FAR_PAIRS)), int(10.0 ** draw(st.floats(0.0, 300.0)))
    if domain is None:
        return name, (bounds.Exponential(draw(MAGNITUDES)), n)
    budget = draw(st.one_of(st.sampled_from(domain[2]), MAGNITUDES.map(lambda x: -x)))
    return name, (pair, n, *(budget if a is LOG else a for a in rest))


@settings(max_examples=300, deadline=None)
@given(far_calls())
def test_answers_or_names_its_refusal_at_the_far_ends(case):
    # each call returns a result, valid or flagged not valid but never NaN, or
    # raises DomainError with a short message that says which input is out of reach
    name, args = case
    try:
        r = getattr(htbounds, name)(*args)
    except numerics.DomainError as exc:
        assert NAMED.search(str(exc)) and len(str(exc)) <= 200, (name, args, str(exc)[:300])
        return
    if name == "eps_at":
        fields = r
        assert 0.0 <= r[0] <= 1.0 and r[1] <= 0.0, (args, r)
    elif isinstance(r, oracle.NPResult):
        fields = (r.log_beta, r.threshold, r.randomization)
        assert 0.0 <= r.randomization <= 1.0, (name, args, r)
    else:
        fields = (r.log_value, r.optimizer)
    assert not any(x is not None and math.isnan(x) for x in fields), (name, args, r)


def test_readme_quick_start_runs():
    # The README's "Library quick start" block, run as written: a name
    # retired from the library cannot linger there.
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    bound, exact = map(float, out.getvalue().split("<="))
    assert 0.0 < bound <= exact < 1.0


def readme_commands():
    """README's command lines as argument lists, without the leading ``htbounds``.

    They are each line of the "Command line" block and each backticked
    ``htbounds <command> --...`` in the text.
    """
    readme = README.read_text()
    block = re.search(r"## Command line\n+```\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("htbounds ")]
    lines += re.findall(r"`(htbounds \w+ --[^`]*)`", readme)
    return [shlex.split(line)[1:] for line in lines]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Each of README's commands, run as written in a scratch directory, exits
    # 0, and every result it prints as JSON is valid.
    monkeypatch.chdir(tmp_path)
    checked = set()
    for argv in readme_commands():
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        rows = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert all(r["valid"] is True for r in rows), (argv, out)
        if argv[0] in ("bound", "threshold", "samplesize"):
            assert rows, (argv, out)
        if "--csv" in argv:
            # the sweep line: a header and a row for each n = 10, 20, ..., 2000, and a plot
            lines = Path(argv[argv.index("--csv") + 1]).read_text().splitlines()
            assert len(lines) == 201 and lines[0].startswith("n,"), argv
            assert Path(argv[argv.index("--svg") + 1]).stat().st_size > 0, argv
            checked.add("sweep")
        if "gaussian:0,0.0016916" in argv:
            # the Known-limits Pensia line: the bound's premise fails there
            assert any(line.startswith("pensia: skipped") for line in out.splitlines()), out
            checked.add("pensia")
    assert checked == {"sweep", "pensia"}


def test_readme_known_limits_values():
    # The numbers README's "Known limits" quotes, each within 1e-9 relative.
    # The fix of ROADMAP direction 3(a) moves the Fano value, 9 the smoothing
    # value and 2(a) the Bernoulli oracle's; it updates this test and README
    # together.
    p = distributions.parse_pair("bernoulli:0.5,0.6")
    g = distributions.parse_pair("gaussian:0,2.9663579698768956")
    b = distributions.parse_pair("bernoulli:0.2,0.5")
    log_eps = math.log(0.8378958604)
    cases = [
        (bounds.fano_bound(p, 20, math.log(0.6)).value, 0.8310407949893764),
        (oracle.np_exact_bernoulli(p, 20, math.log(0.6)).beta, 0.12224625392657998),
        (bounds.smoothing_out_bound(g, 4359, log_eps).log_value, -19306.661274995873),
        (oracle.np_exact_gaussian(g, 4359, log_eps).log_beta, -19377.792342684952),
        # eps = e^{-0.001 n} at n = 300
        (oracle.np_exact_bernoulli(b, 300, -0.3).beta, 2.8438832267242953e-13),
        # the type path; 50-digit mpmath gives 4.2963577573051524e-30
        (oracle.np_exact_discrete(b, 300, -0.3).beta, 4.2963577573086836e-30),
    ]
    for got, want in cases:
        assert math.isclose(got, want, rel_tol=1e-9), (got, want)


@pytest.mark.parametrize("demo", sorted(README.parent.glob("demos/*.py")), ids=lambda p: p.stem)
def test_demo_runs_without_warnings(demo, tmp_path):
    # each demo script in a fresh interpreter, with the runtime checks of -X dev
    # and every warning an error; one that escapes as "Exception ignored"
    # leaves the exit code 0, so stderr must stay empty too
    src = str(Path(htbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo), str(tmp_path)],
                         env=env, cwd=tmp_path, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, ""), out.stderr


@pytest.mark.parametrize("package", ["scipy", "html"])
def test_cli_import_loads_no(package):
    # scipy is a test-only dependency, and html would be loaded for one
    # escape: a fresh interpreter that imports the command line, and so
    # every module of the package, loads no module of either
    src = str(Path(htbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, htbounds.cli\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
