"""CLI fuzz: every generated document and flag combination, run in-process
through ``cli.run``, ends with exit 0, 1 or 2 and a JSON report that names
its schema version and command."""

import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toric3d.cli import SCHEMA_VERSION, run

ATOMS = ("X+", "X-", "Y+", "Y-", "Z+", "Z-")
JUNK_ATOMS = ("Q+", "X", "x+", "+", "Z+Z", " ", "é")
HUGE = (10**9, -(10**12), 10**30, 10**400)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
coordinates = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(HUGE),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=2),
)
# mostly well-formed triples and words, so that documents reach the commands
small_triples = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
triples = st.one_of(
    small_triples,
    small_triples,
    small_triples,
    st.lists(coordinates, min_size=3, max_size=3),
    st.lists(coordinates, max_size=5),
    json_values,
)
atom_words = st.lists(st.sampled_from(ATOMS), max_size=6).map("".join)
words = st.one_of(
    atom_words,
    atom_words,
    atom_words,
    st.lists(st.sampled_from(ATOMS + JUNK_ATOMS), max_size=6).map("".join),
    json_values,
)
strings = st.fixed_dictionaries(
    {"neg_period": words, "pos_period": words},
    optional={"core": words, "base": triples, "extra": json_values},
)
loops = st.fixed_dictionaries({"steps": words}, optional={"start": triples})
near_valid_documents = st.fixed_dictionaries(
    {},
    optional={
        "strings": st.lists(strings, max_size=3) | json_values,
        "charges": st.lists(triples, max_size=3) | json_values,
        "loops": st.lists(loops, max_size=2) | json_values,
    },
).map(json.dumps)
# documents that parse, so that runs reach the commands: strings with
# one-letter tails and short cores near the origin, and a few charges
lines = st.fixed_dictionaries(
    {
        "neg_period": st.sampled_from(ATOMS),
        "core": st.lists(st.sampled_from(ATOMS), max_size=4).map("".join),
        "pos_period": st.sampled_from(ATOMS),
        "base": small_triples,
    }
)
valid_documents = st.fixed_dictionaries(
    {"strings": st.lists(lines, min_size=1, max_size=3), "charges": st.lists(small_triples, max_size=2)}
).map(json.dumps)
documents = st.one_of(
    valid_documents,
    valid_documents,
    near_valid_documents,
    near_valid_documents,
    json_values.map(json.dumps),
    st.text(max_size=20),
)
faces = st.fixed_dictionaries(
    {"base": triples, "normal": st.sampled_from(("x", "y", "z", "Z", "w", "")) | json_values}
)
face_lists = st.lists(faces, max_size=6).map(json.dumps)


@st.composite
def lines_along_a_membrane(draw):
    """A document of 1 or 2 straight lines running along opposite sides of a
    rectangle of faces, and that rectangle: the double U of surgery."""
    normal, along, across = draw(st.permutations(range(3)))
    corner, width, height = draw(small_triples), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    faces = []
    for u in range(width):
        for v in range(height):
            base = list(corner)
            base[across] += u
            base[along] += v
            faces.append({"base": base, "normal": "xyz"[normal]})
    strings = []
    for offset in draw(st.sampled_from(((0,), (width,), (0, width)))):
        base = list(corner)
        base[across] += offset
        period = "XYZ"[along] + draw(st.sampled_from("+-"))
        strings.append({"neg_period": period, "core": "", "pos_period": period, "base": base})
    return json.dumps({"strings": strings}), json.dumps(faces)


rectangles = lines_along_a_membrane().map(lambda case: case[1])
surfaces = st.one_of(rectangles, rectangles, face_lists, json_values.map(json.dumps))

region_corners = st.one_of(st.integers(-3, 6), st.sampled_from(HUGE))
regions = st.one_of(
    st.tuples(small_triples, small_triples).map(
        lambda c: "{},{},{}:{},{},{}".format(*c[0], *(lo + abs(d) for lo, d in zip(*c)))
    ),
    st.tuples(*[region_corners] * 6).map(lambda c: "{},{},{}:{},{},{}".format(*c)),
    st.sampled_from(("0,0,0", "1,2:3,4", "a,b,c:d,e,f", "0,0,0:1,1,1:2", "", "4,4,4:0,0,0")),
    st.text(max_size=12),
)
# verify only with checks that take milliseconds, and with flags it rejects
verify_flags = st.sampled_from(
    [
        ["--checks", "commutation", "--n", n]
        for n in ("-1", "0", "1", "4", "1000000000", "x")
    ]
    + [
        ["--checks", "energy", "--samples", n]
        for n in ("-5", "0", "2", "10001", "1000000000000", "1.5")
    ]
    + [["--checks", "bogus"], ["--n"], ["--seed", "x", "--checks", "commutation", "--n", "1"]]
)


often = st.sampled_from((True, True, True, False))


@st.composite
def invocations(draw):
    """An argv and the text on stdin; a surgery argv names ``{surface}``."""
    command = draw(
        st.sampled_from(
            ("validate", "classify", "energy", "straighten", "surgery", "enumerate", "verify", "bogus")
        )
    )
    argv = [command]
    if command == "classify":
        argv += draw(st.lists(st.sampled_from(("--strict-gss", "--expect-ground")), unique=True))
    elif command in ("energy", "straighten") and draw(often):
        argv.append("--region=" + draw(regions))
    elif command == "surgery" and draw(often):
        argv += ["--surface", "{surface}"]
    elif command == "enumerate":
        argv += ["--strings", draw(st.sampled_from(("2", "3", "4", "x")))]
    elif command == "verify":
        argv += draw(verify_flags)
    argv += draw(st.sampled_from(([],) * 5 + (["--bogus"], ["--config"], ["--region"])))
    if command == "surgery" and draw(st.booleans()):
        return argv, *draw(lines_along_a_membrane())
    return argv, draw(documents), draw(surfaces)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_every_invocation_ends_in_a_json_report(tmp_path_factory, invocation):
    argv, document, surface = invocation
    surface_file = tmp_path_factory.getbasetemp() / "faces.json"
    surface_file.write_text(surface, encoding="utf-8")
    argv = [str(surface_file) if a == "{surface}" else a for a in argv]
    saved = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        report, code = run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["command"] == (argv[0] if argv[0] != "bogus" else None)
    json.dumps(report)
