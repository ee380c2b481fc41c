"""Schema-driven manifest fuzzer: ``validate`` and ``run`` never raise or hang.

Each key of a kind's schema is drawn inside its table bound or just outside
it (the bound itself when it is open, one below it, 0, or a negative value;
a list too short, or with a repeated entry where entries must be distinct).
Sizes stay tiny: d <= 3, at most 512 sites, 60 particles or mass units and
20 samples, one worker.  Both verbs must exit 0, 1 or 2 without raising; a
manifest that ``validate`` rejects must also fail ``run`` with exit 1; and
a run that completes writes no NaN and drops none of the keys a run could
once silently drop (``heatmap``, ``slope_tol``).
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from sandlab import cli, torus_kinds  # noqa: F401  registers the torus kinds in cli._EXPERIMENTS
from sandlab.cli import main

# The largest side per dimension that keeps n^d <= 512.
N_MAX = {1: 32, 2: 16, 3: 8}

# Keys whose default would size a large array or loop: always written out.
ALWAYS_WRITTEN = {"trials"}

TOLERANCES = st.sampled_from([-1.0, 0.0, 0.1, 10.0])


def _outside(key):
    """Scalars just outside key.bound: open ends, one past each end, 0, -1."""
    _, _, bound = cli._split_bound(key)
    if bound[0] in "([":
        lo, hi = (float(v) for v in bound[1:-1].split(","))
        candidates = [lo, lo - 1, hi, hi + 1, 0.0, -1.0]
    else:
        lo = float(bound.split()[1])
        candidates = [lo, lo - 1, 0.0, -1.0]
    out = sorted({c for c in candidates if not cli._within(bound, c)})
    return [int(c) for c in out] if key.typ in ("int", "ints") else out


def _test_function(d):
    wave = st.lists(st.sampled_from(["-1", "0", "1", "2"]), min_size=d, max_size=d)
    amplitude = st.sampled_from([[], ["0.5"], ["-2"], [], ["1e-100"], ["-1e100"], ["0"], ["1e101"]])
    return st.builds(lambda name, w, a: " ".join([name] + w + a),
                     st.sampled_from(["cos", "sin"]), wave, amplitude)


def _inside(key, d):
    """A strategy for in-bound values of key at dimension d, at tiny sizes."""
    d = min(max(d, 1), 3)  # an out-of-bound d still sizes the other keys
    n_max = N_MAX[d]
    name = key.name
    table = {
        "seed": st.integers(0, 3),
        "d": st.integers(1, 3),
        "n": st.integers(2, n_max),
        "alpha": st.sampled_from([0.5, 1.0, 1.5, 3.0]),
        "stable_alpha": st.sampled_from([0.5, 1.0, 2.0]),
        "pareto_index": st.sampled_from([1.0, 2.5]),
        "scale": st.sampled_from([0.5, 1.0, 2.0]),
        "delta": st.sampled_from([-0.5, 0.0, 0.25, 1.0]),
        "samples": st.integers(2, 20),
        "t": st.sampled_from([0.25, 1.0, 2.0, 1e-20]),
        "slope_tol": st.sampled_from([0.1, 10.0]),
        "r": st.integers(1, 4),
        "particles": st.integers(1, 60),
        "trials": st.integers(1, 3),
        "box": st.integers(1, 8) if key.typ == "int" else st.sampled_from([0.25, 0.5, 0.75]),
        "mass": st.sampled_from([0.0, 0.5, 1.0, 10.0, 60.0]),
        "tau": st.sampled_from([1e-6, 0.1]),
        "h": st.sampled_from([0.25, 0.5]),
        "density": st.sampled_from([-0.5, 0.5, 1.0, 1.5]),
        "f": _test_function(d),
        "f2": _test_function(d),
        "source": st.sampled_from(["point 0.5", "ball 0.5 2", "point 2", "ball 0.25 0.5",
                                   "point 0", "ball -0.5 2", "ball 0.5", "point x"]),
    }
    if key.choices:
        return st.sampled_from(key.choices)
    if key.typ == "bool":
        return st.booleans()
    if name.startswith("tol"):
        return TOLERANCES
    one = table[name]
    if not key.bound:
        return one
    least, distinct, bound = cli._split_bound(key)
    one = one.filter(lambda v: cli._within(bound, v))
    if key.typ in ("ints", "floats"):
        return st.lists(one, min_size=least, max_size=3, unique=distinct)
    return one


def _value(draw, key, d, broken):
    """An in-bound value of key, or an out-of-bound one if broken."""
    value = draw(_inside(key, d))
    if not broken:
        return value
    bad = draw(st.sampled_from(_outside(key)))
    if not isinstance(value, list):
        return bad
    least, distinct, _ = cli._split_bound(key)
    if least > 1 and draw(st.booleans()):
        return value[: least - 1]
    if distinct and draw(st.booleans()):
        return value[:-1] + value[:1]
    return value[:-1] + [bad]


def _render(value):
    if isinstance(value, list):
        return ", ".join(_render(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def manifests(draw, kind):
    """One manifest of kind with at most one fault.

    The fault is a key drawn outside its bound, a required key left out, or
    a key written where it does not apply: a noise key under another sigma,
    alpha with the nearest-neighbour operator.  Optional keys that apply are
    written or left to their defaults at random.
    """
    schema, _ = cli._EXPERIMENTS[kind]
    faults = ([("out", k.name) for k in schema if k.bound]
              + [("omit", k.name) for k in schema if k.required]
              + [("stray", k.name) for k in schema if k.regime or k.name == "alpha"])
    fault = draw(st.sampled_from([None] * 2 * len(faults) + faults))
    current = {k.name: k.default for k in schema}
    values = {}
    for key in sorted(schema, key=lambda k: k.name != "d"):  # d sizes the rest
        if key.name == "out" or fault == ("omit", key.name):
            continue
        applies = (key.regime in (None, current.get("sigma"))
                   and (key.name != "alpha" or current.get("operator", "lr") == "lr"))
        always = key.required or key.name in ALWAYS_WRITTEN or key.name == "alpha"
        if fault in (("out", key.name), ("stray", key.name)) or applies and (always or draw(st.booleans())):
            values[key.name] = current[key.name] = _value(draw, key, current["d"] or 1, fault == ("out", key.name))
    lines = [f"kind = {kind}"] + [f"{name} = {_render(v)}" for name, v in values.items()]
    return "\n".join(lines) + "\n"


ANY_MANIFEST = st.one_of(*(manifests(kind) for kind in cli.KINDS))


def check_manifest(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(text, encoding="ascii")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            checked = main(["validate", str(path)])
            ran = main(["run", str(path), "--out", str(out)])
        assert checked in (0, 1) and ran in (0, 1, 2)
        assert checked == 0 or ran == 1
        if ran == 1:
            prefix = "invalid: " if checked else "error: "
            assert any(line.startswith(prefix) for line in err.getvalue().splitlines())
            assert not out.exists()
        else:
            check_complete_run(cli.validate_manifest(cli.parse_manifest(text)), out)


def check_complete_run(p, out):
    summary = (out / "summary.txt").read_text()
    written = [line.split(" = ", 1)[1] for line in summary.splitlines() if line.startswith("output = ")]
    for name in written + ["summary.txt"]:
        if name.endswith((".csv", ".txt")):
            assert "nan" not in (out / name).read_text(), name
    if p.get("heatmap") and "no site toppled" not in summary:
        assert any(name.endswith(".pgm") for name in written)
    if p.get("slope_tol") is not None:
        assert f"tol={p['slope_tol']}" in summary


@settings(max_examples=200, deadline=None)
@given(text=ANY_MANIFEST)
# each of these once passed validate and then crashed, hung, wrote NaN or dropped a key in run
@example(text="kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nsamples = 1\n")
@example(text="kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 0\n")
@example(text="kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 1\n")
@example(text="kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 10\nt = 0\n")
@example(text="kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0 0\nsamples = 10\n")
@example(text="kind = mean-odometer\nd = 2\nn = 8, 16\nsamples = 1\n")
# quad_points is not a key: a stale line is refused as unknown, not ignored
@example(text="kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 10\nquad_points = 0\n")
@example(text="kind = topple\nd = 1\nn = 8\noperator = lr\nalpha = 1e300\n")
@example(text="kind = topple\nd = 3\nn = 4\nheatmap = true\n")
@example(text="kind = odometer\nd = 1\nn = 8\nheatmap = true\n")
@example(text="kind = idla\nparticles = 10\nd = 3\ntrials = 1\nheatmap = true\n")
@example(text="kind = rotor\nparticles = 10\nd = 3\nheatmap = true\n")
@example(text="kind = point-source\nmass = 10\nd = 1\nheatmap = true\n")
@example(text="kind = mean-odometer\nd = 4\nn = 2, 3\nsamples = 4\nslope_tol = 0.1\n")
@example(text="kind = obstacle-shape\nd = 2\nh = 0.5\nbox = 1.0\nsource = point x\n")
@example(text="kind = charfun\nd = 1\nn = 2\nalpha = 1.0\nf = sin 1 0.5\nsamples = 15\n")
@example(text="kind = charfun\nd = 2\nn = 8\nalpha = 1.0\nf = cos 1 0\nsamples = 10\nt = 1e-20\n")
# a_n underflows to 0 at alpha = 1e-300; at 0.005 the stable draws overflow to inf
@example(text="kind = charfun\nd = 1\nn = 8\nalpha = 1e-300\nf = cos 1\nsamples = 50\n")
@example(text="kind = charfun\nd = 1\nn = 8\nalpha = 0.005\nf = cos 1\nsamples = 50\n")
@example(text="kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0 1e-200\nsamples = 10\n")
@example(text="kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0 1e200\nsamples = 10\n")
@example(text="kind = mean-odometer\nd = 2\nn = 8, 8\nsamples = 4\n")
@example(text="kind = variance-structure\nd = 2\nn = 8\nr = 1, 1\n")
@example(text="kind = kernel-decay\nd = 3\nn = 8\noperator = lr\nalpha = 1.0\nr = 2, 1, 2\n")
# Pareto noise this heavy cancels the centred heights' mass (-6.6e268, not 64)
@example(text="kind = topple\nd = 2\nn = 8\nsigma = pareto\npareto_index = 0.01\n")
# math.gamma(d/2 + 1) in the ball volume overflows for d >= 342, and box / h for
# a subnormal h is inf: both raise OverflowError, an ArithmeticError
@example(text="kind = idla\nparticles = 1\nd = 400\ntrials = 1\n")
@example(text="kind = rotor\nparticles = 1\nd = 400\n")
@example(text="kind = point-source\nmass = 1\nd = 400\n")
@example(text="kind = obstacle-shape\nd = 2\nh = 1e-320\nbox = 2.0\nsource = point 1.0\n")
def test_any_manifest_exits_cleanly(text):
    check_manifest(text)
