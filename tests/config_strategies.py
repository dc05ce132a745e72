"""Hypothesis strategies for small schema-valid configs, shared by the
robustness tests that run CLI subcommands in process."""
from hypothesis import strategies as st

from nisio.probes import PROBE_NAMES

FIELDS = ("-x", "0.5*x", "-0.5*x", "1.0 + 0*x", "sin(x)", "-tanh(x)")
# family kinds whose members each grid kind accepts
FAMILIES = {"uniform": ("heat", "ou", "koopman"), "periodic": ("heat", "stable"),
            "log": ("gbm",), "labels": ("chain",)}


def num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def grid(draw, kind, boundary=True):
    """A grid section of ``kind`` with at most 50 cells; a uniform one has a
    ``boundary`` unless ``boundary`` is false."""
    if kind == "labels":
        return {"kind": "labels", "n": draw(st.integers(1, 6))}
    if kind == "log":
        return {"kind": "log", "x_max": draw(num(1.0, 10.0)),
                "n": draw(st.integers(2, 24)),
                "boundary": draw(st.sampled_from(["reflect", "renormalize"]))}
    half = draw(num(0.5, 5.0))
    section = {"kind": kind, "domain": [-half, half],
               "dx": 2.0 * half / draw(st.integers(1, 50))}
    if kind == "uniform" and boundary:
        section["boundary"] = draw(st.sampled_from(["reflect", "renormalize"]))
    return section


@st.composite
def members(draw, kind, grid, count):
    """The member keys of a family of ``kind`` with 1 to ``count`` members."""
    if kind == "heat":
        return {"sigmas": draw(st.lists(num(0.0, 2.0), min_size=1, max_size=count))}
    if kind == "ou":
        member = st.fixed_dictionaries({"B": num(-3.0, 1.0), "m": num(-1.0, 1.0),
                                        "C": num(0.0, 2.0)})
        return {"members": draw(st.lists(member, min_size=1, max_size=count))}
    if kind == "gbm":
        pair = st.tuples(num(-0.3, 0.3), num(0.0, 0.8)).map(list)
        return {"members": draw(st.lists(pair, min_size=1, max_size=count))}
    if kind == "koopman":
        return {"fields": draw(st.lists(st.sampled_from(FIELDS), min_size=1,
                                        max_size=count))}
    if kind == "stable":
        return {"alphas": draw(st.lists(num(0.05, 0.95), min_size=1, max_size=count))}
    size = grid["n"]
    matrices = []
    for _ in range(draw(st.integers(1, count))):
        rows = [[draw(num(0.0, 2.0)) if j != i else 0.0 for j in range(size)]
                for i in range(size)]
        for i, row in enumerate(rows):
            row[i] = -sum(row)
        matrices.append(rows)
    return {"rate_matrices": matrices}


@st.composite
def grid_and_family(draw, families):
    """A grid section of a kind in ``families`` (grid kind -> family kinds)
    and a family section of one of its family kinds, up to three members or a
    scaled singleton with up to three scales."""
    grid_kind = draw(st.sampled_from(sorted(families)))
    kind = draw(st.sampled_from(families[grid_kind]))
    # a Koopman family rejects a boundary, which it would not read
    section = draw(grid(grid_kind, boundary=kind != "koopman"))
    if draw(st.booleans()):
        family = {"kind": "scaled",
                  "base": dict(kind=kind, **draw(members(kind, section, 1))),
                  "scales": draw(st.lists(num(0.0, 3.0), min_size=1, max_size=3))}
    else:
        family = dict(kind=kind, **draw(members(kind, section, 3)))
    return section, family


def properties(grid):
    """A ``properties`` section: one to three probes, one positive horizon
    and sometimes t = 0 beside it, one or two partition pairs."""
    return st.fixed_dictionaries({"properties": st.fixed_dictionaries({
        "probes": st.lists(st.sampled_from(PROBE_NAMES), min_size=1, max_size=3),
        "t_list": st.tuples(num(0.01, 1.0), st.lists(
            st.one_of(st.just(0.0), num(0.01, 1.0)), max_size=1)).map(
                lambda pair: [pair[0]] + pair[1]),
        "seed": st.integers(0, 2 ** 31 - 1),
        "partition_pairs": st.integers(1, 2)})})


def outputs(out_dir):
    """File name -> bytes of every file a run wrote to ``out_dir``."""
    if not out_dir.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
