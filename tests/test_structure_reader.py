"""parse_structure against a slow reference reader.

reference_parse_structure is the pair-set reader parse_structure replaced:
every name on every line checked token by token, the pairs gathered into
two sets and turned into relations by Rel.from_pairs. On seeded random
documents the two must return equal structures, and on a corpus of broken
documents they must raise byte-identical UsageErrors.
"""

import random
import re

import pytest

from biposet import BiPoset, GroundSet, UsageError, enumerate_biposets, parse_structure
from biposet import divisibility_biposet, powerset_biposet, serialize_structure
from biposet.core import Diamond, Rel

NAME = re.compile(r"[A-Za-z0-9_{}]+\Z")


def reference_parse_structure(text):
    labels = None
    index = {}
    pairs1, pairs2 = set(), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if labels is None:
            if head != "elements:":
                raise UsageError(f"expected an elements line, line {lineno}")
            if len(tokens) == 1:
                raise UsageError(f"elements line declares no elements, line {lineno}")
            labels = []
            for name in tokens[1:]:
                if not NAME.match(name):
                    raise UsageError(f"invalid element name {name}, line {lineno}")
                if name in index:
                    raise UsageError(f"duplicate element {name}, line {lineno}")
                index[name] = len(labels)
                labels.append(name)
            continue
        if head == "elements:":
            raise UsageError(f"second elements line, line {lineno}")
        if head not in ("r1:", "r2:") or len(tokens) != 3:
            raise UsageError(f"expected 'r1: x y' or 'r2: x y', line {lineno}")
        xy = []
        for name in tokens[1:]:
            if not NAME.match(name):
                raise UsageError(f"invalid element name {name}, line {lineno}")
            if name not in index:
                raise UsageError(f"undeclared element {name}, line {lineno}")
            xy.append(index[name])
        (pairs1 if head == "r1:" else pairs2).add(tuple(xy))
    if labels is None:
        raise UsageError("no elements line found")
    n = len(labels)
    return BiPoset(GroundSet(tuple(labels)),
                   Diamond(Rel.from_pairs(n, pairs1), Rel.from_pairs(n, pairs2)))


def outcome(read, text):
    """("ok", structure) or ("error", message); any other exception propagates."""
    try:
        return "ok", read(text)
    except UsageError as exc:
        return "error", str(exc)


def assert_same(text):
    want = outcome(reference_parse_structure, text)
    assert outcome(parse_structure, text) == want, text
    return want


# --- seeded random documents

SPACES = [" ", "  ", "\t", " \t "]


def gap(rng):
    return rng.choice(SPACES)


def random_names(rng, n):
    names = set()
    while len(names) < n:
        stem = "".join(rng.choice("abcxyz019_") for _ in range(rng.randint(1, 4)))
        names.add(f"s{{{stem}}}" if rng.random() < 0.3 else stem)
    return sorted(names, key=lambda _: rng.random())


def random_document(rng):
    """A valid document: comments, blank lines, duplicate pairs, braced
    names, tabs and runs of spaces, pairs in random order."""
    n = rng.randint(1, 9)
    names = random_names(rng, n)
    lines = [gap(rng) + "# comment " + gap(rng) + "r1: a b"] * rng.randint(0, 2)
    lines.append(gap(rng) * rng.randint(0, 1) + "elements:" + gap(rng)
                 + gap(rng).join(names) + gap(rng) * rng.randint(0, 1))
    body = []
    for _ in range(rng.randint(0, 3 * n * n)):
        roll = rng.random()
        if roll < 0.1:
            body.append(rng.choice(["", gap(rng), "#", gap(rng) + "#r2: x"]))
        elif roll < 0.2 and body:
            body.append(rng.choice(body))       # a duplicate pair, blank or comment
        else:
            head = rng.choice(["r1:", "r2:"])
            x, y = rng.choice(names), rng.choice(names)
            body.append(gap(rng) * rng.randint(0, 1) + head + gap(rng) + x + gap(rng) + y
                        + gap(rng) * rng.randint(0, 1))
    lines += body
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice([end, ""])


def test_random_documents_read_as_the_reference_reads_them():
    for seed in range(300):
        kind, _ = assert_same(random_document(random.Random(seed)))
        assert kind == "ok", seed


def test_written_structures_read_as_the_reference_reads_them():
    grounds = {n: GroundSet(tuple(f"e{i}" for i in range(n))) for n in range(1, 4)}
    structures = [BiPoset(grounds[n], d) for n in range(1, 4) for d in enumerate_biposets(n)]
    structures += [powerset_biposet(k) for k in range(6)]
    structures += [divisibility_biposet(k) for k in range(1, 25)]
    for bp in structures:
        kind, back = assert_same(serialize_structure(bp))
        assert kind == "ok" and back.d == bp.d and back.ground == bp.ground


# --- broken documents

HEADER = "elements: a b {c}"
PAIRS = ["r1: a b", "r2: b {c}", "r1: {c} a", "r2: a a"]

# lines that break a document after its elements line, each with the
# message they raise, given with {line} for the line number
BAD_PAIR_LINES = [
    ("elements: a", "second elements line, line {line}"),
    ("elements:", "second elements line, line {line}"),
    ("r3: a b", "expected 'r1: x y' or 'r2: x y', line {line}"),
    ("r1 a b", "expected 'r1: x y' or 'r2: x y', line {line}"),
    ("r1: a", "expected 'r1: x y' or 'r2: x y', line {line}"),
    ("r2:", "expected 'r1: x y' or 'r2: x y', line {line}"),
    ("r1: a b {c}", "expected 'r1: x y' or 'r2: x y', line {line}"),
    ("a b", "expected 'r1: x y' or 'r2: x y', line {line}"),
    ("r1: a b # trailing", "expected 'r1: x y' or 'r2: x y', line {line}"),
    ("r1: a-b a", "invalid element name a-b, line {line}"),
    ("r2: a a-b", "invalid element name a-b, line {line}"),
    ("r1: d a", "undeclared element d, line {line}"),
    ("r2: a d", "undeclared element d, line {line}"),
    ("r1: c a", "undeclared element c, line {line}"),
    # an invalid and an undeclared name on one line, in both orders
    ("r1: a-b d", "invalid element name a-b, line {line}"),
    ("r1: d a-b", "undeclared element d, line {line}"),
    ("r2: d e", "undeclared element d, line {line}"),
    ("r2: x! y!", "invalid element name x!, line {line}"),
]

# first significant lines that are not a good elements line
BAD_ELEMENT_LINES = [
    ("r1: a b", "expected an elements line, line {line}"),
    ("element: a b", "expected an elements line, line {line}"),
    ("elements:", "elements line declares no elements, line {line}"),
    ("elements: a a-b", "invalid element name a-b, line {line}"),
    ("elements: a b a", "duplicate element a, line {line}"),
    # an invalid name and a duplicate on one line, in both orders
    ("elements: a a a-b", "duplicate element a, line {line}"),
    ("elements: a a-b a", "invalid element name a-b, line {line}"),
]


def pair_line_documents():
    """Each bad pair line as the first, a middle and the last line."""
    for bad, message in BAD_PAIR_LINES:
        for at in range(len(PAIRS) + 1):
            lines = [HEADER] + PAIRS[:at] + [bad] + PAIRS[at:]
            yield "\n".join(lines) + "\n", message.format(line=at + 2)
        # last line of a file with comments and blanks before it
        lines = ["# c", HEADER, "", *PAIRS, "  # c", bad]
        yield "\n".join(lines), message.format(line=len(lines))


def element_line_documents():
    """Each bad elements line as the first, a middle and the last line."""
    for bad, message in BAD_ELEMENT_LINES:
        yield "\n".join([bad] + PAIRS) + "\n", message.format(line=1)
        yield "\n".join(["# c", "", "\t# c", bad] + PAIRS) + "\n", message.format(line=4)
        yield "\n".join(["#", "", bad]), message.format(line=3)


NO_ELEMENTS = ["", "\n", "# only a comment\n", "\n\n  \t\n# c\n"]


@pytest.mark.parametrize("text,message", [
    *pair_line_documents(), *element_line_documents(),
    *((text, "no elements line found") for text in NO_ELEMENTS),
])
def test_broken_documents_raise_what_the_reference_raises(text, message):
    assert assert_same(text) == ("error", message)


def mutants(rng, text):
    """Token-level mutations of a valid document: a token dropped, doubled,
    swapped for a name or head, or broken by a stray character."""
    lines = text.split("\n")
    pool = ["a-b", "zz", "elements:", "r1:", "r2:", "#", "{", "r3:", "e0", "s{0}"]
    for _ in range(40):
        out = list(lines)
        k = rng.randrange(len(out))
        tokens = out[k].split() or [""]
        t = rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0:
            del tokens[t]
        elif op == 1:
            tokens.insert(t, tokens[t])
        elif op == 2:
            tokens[t] = rng.choice(pool)
        else:
            tokens[t] += rng.choice("-!#.")
        out[k] = gap(rng).join(tokens)
        yield "\n".join(out)


def test_mutated_documents_read_as_the_reference_reads_them():
    for seed in range(100):
        rng = random.Random(1000 + seed)
        for text in mutants(rng, random_document(rng)):
            assert_same(text)
