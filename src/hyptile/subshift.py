"""Colouring subshifts: presentations, languages, and exact invariant measures.

Three presentations are supported.  Periodic words and substitution rules
define the subshift exactly; an explicit window only exhibits a finite
stretch of one orbit, so everything derived from it is flagged
approximate and measures are refused outright.

Substitution languages are computed from the 2-blocks: those inside a
letter's image, closed under adding the junction of each 2-block's image
(the last letter of the first image and the first of the second), then
read through the least power sigma^k of the rules whose images have at
least n letters.  Both steps are exact for primitive rules, which is the
regime every measure-level operation requires anyway.  For a non-primitive
rule the windows depend on the power that reads them, so its language is
not exact, and everything derived from it is flagged approximate too.

Measures use the same windows.  The 2-block measure is the one Perron
vector of the block substitution on L(2); every other length is pushed
from it through the same sigma^k and scaled by lambda^-k, the transpose
of the tower map that reads those windows.

Aperiodicity for substitutions is certified, not guessed.  A minimal
subshift is periodic iff its complexity stops growing, |L(n)| = |L(n+1)|
for some n (Morse-Hedlund).  For bijective constant-length rules (every
column a permutation) a periodic fixed word has minimal period p <=
alphabet size: first, gcd(p, s) > 1 would let a column map collapse the
rotation by p/q to the identity, contradicting minimality; then windows
of length >= p at the positions s^k * i are pinned by single letters, so
same-letter positions coincide mod p.  A period p <= |A| caps |L(n)| at
|A|, so the complexity test is conclusive once it has compared |L(n)|
with |L(n+1)| for every n <= |A|.  Other rules only ever emit a definite
"periodic" (|L(n)| = |L(n+1)| for some n < 40), else "unknown".
"""

from __future__ import annotations

import collections
import functools
import math
from fractions import Fraction

from .algebraic import perron_eigenvalue, nullspace_vector


class HorizonExhausted(Exception):
    """The explicit window is too short for the requested block length."""


class UnsupportedSpec(Exception):
    """Raised for measure requests outside the uniquely ergodic cases."""


class Periodic(collections.namedtuple("Periodic", "word")):
    __slots__ = ()

    def __new__(cls, word: str):
        _check_letters(word)
        if not word:
            raise ValueError("periodic word must be nonempty")
        return super().__new__(cls, word)


class Substitution(collections.namedtuple("Substitution", "rules")):
    """rules: the sorted (letter, image) pairs."""

    __slots__ = ()

    @staticmethod
    def of(mapping) -> "Substitution":
        return Substitution(tuple(sorted(mapping.items())))

    def __new__(cls, rules: tuple[tuple[str, str], ...]):
        if not rules:
            raise ValueError("substitution rules must be nonempty")
        seen = set()
        for letter, image in rules:
            if len(letter) != 1:
                raise ValueError("rule keys must be single letters")
            if letter in seen:
                raise ValueError(f"duplicate rule for {letter!r}")
            seen.add(letter)
            if not image:
                raise ValueError(f"empty image for letter {letter!r}")
        for letter, image in rules:
            for c in image:
                if c not in seen:
                    raise ValueError(f"image letter {c!r} has no rule")
        _check_letters("".join(seen))
        return super().__new__(cls, rules)

    def mapping(self) -> dict:
        return dict(self.rules)


class ExplicitWindow(collections.namedtuple("ExplicitWindow", [
        "left",  # letters at indices ..., -2, -1
        "right",  # letters at indices 0, 1, ...
        "horizon"])):
    __slots__ = ()

    def __new__(cls, left: str, right: str, horizon: int):
        _check_letters(left + right)
        if not (left + right):
            raise ValueError("window must be nonempty")
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise ValueError(f"horizon must be an int, got {horizon!r}")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return super().__new__(cls, left, right, horizon)


SubshiftSpec = Periodic | Substitution | ExplicitWindow


def _check_letters(s: str):
    # colour alphabets are 1..r in practice, but any symbol works here
    for c in s:
        if not c.isalnum():
            raise ValueError(f"letters must be alphanumeric, got {c!r}")


def approximate(spec: SubshiftSpec) -> bool:
    """Whether downstream results carry a caveat: an explicit window shows
    only a finite stretch of one orbit, and a non-primitive substitution's
    language is not exact (see the module docstring)."""
    if isinstance(spec, Substitution):
        return not is_primitive(spec)
    return isinstance(spec, ExplicitWindow)


def alphabet(spec: SubshiftSpec) -> tuple[str, ...]:
    if isinstance(spec, Periodic):
        return tuple(sorted(set(spec.word)))
    if isinstance(spec, Substitution):
        return tuple(sorted(dict(spec.rules)))
    return tuple(sorted(set(spec.left + spec.right)))


# -- JSON ingestion ------------------------------------------------------

def _field(obj: dict, name: str, kind: type, default=None):
    """obj[name], which must be a kind (and not a bool)."""
    if name not in obj:
        if default is None:
            raise ValueError(f"spec field {name!r} is missing")
        return default
    value = obj[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"spec field {name!r} must be of type "
                         f"{kind.__name__}, got {value!r}")
    return value


def parse_spec(obj: dict) -> SubshiftSpec:
    """The spec a JSON document describes; ValueError names a bad field."""
    if not isinstance(obj, dict):
        raise ValueError(f"a spec must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "periodic":
        return Periodic(_field(obj, "word", str))
    if kind == "substitution":
        rules = _field(obj, "rules", dict)
        for letter, image in rules.items():
            if not (isinstance(letter, str) and isinstance(image, str)):
                raise ValueError(f"spec field 'rules' must map letters to "
                                 f"strings, got {letter!r}: {image!r}")
        return Substitution.of(rules)
    if kind == "explicit":
        return ExplicitWindow(_field(obj, "left", str, ""),
                              _field(obj, "right", str, ""),
                              _field(obj, "horizon", int))
    raise ValueError(f"unknown subshift spec type: {kind!r}")


def spec_to_json(spec: SubshiftSpec) -> dict:
    if isinstance(spec, Periodic):
        return {"type": "periodic", "word": spec.word}
    if isinstance(spec, Substitution):
        return {"type": "substitution", "rules": dict(spec.rules)}
    return {"type": "explicit", "left": spec.left, "right": spec.right,
            "horizon": spec.horizon}


# -- substitution machinery ----------------------------------------------

def incidence_matrix(spec: Substitution) -> list[list[int]]:
    """M[i][j] = occurrences of letter i in the image of letter j."""
    letters = alphabet(spec)
    rules = spec.mapping()
    return [[rules[b].count(a) for b in letters] for a in letters]


def is_primitive(spec: Substitution) -> bool:
    """Some power of the incidence matrix is strictly positive."""
    letters = alphabet(spec)
    r = len(letters)
    rules = spec.mapping()
    reach = [[rules[b].count(a) > 0 for b in letters] for a in letters]
    cur = reach
    for _ in range((r - 1) ** 2 + 1):
        if all(all(row) for row in cur):
            return True
        cur = [[any(cur[i][k] and reach[k][j] for k in range(r))
                for j in range(r)] for i in range(r)]
    return False


def _apply(rules: dict, word: str) -> str:
    return "".join(rules[c] for c in word)


def _windows(rules: dict, v: str, n: int) -> list[str]:
    """The n-letter windows of rules(v) that start inside rules(v[0])."""
    img = _apply(rules, v)
    return [img[j:j + n] for j in range(len(rules[v[0]]))]


def _power(rules: dict, n: int) -> tuple[int, dict]:
    """(k, sigma^k) for the least k >= 1 whose images all have >= n letters.

    Every n-letter word of a primitive rule's subshift then starts inside
    some sigma^k(v[0]) and ends inside sigma^k(v) for a 2-block v.  Rule
    sets with a cycle of letters whose images never grow are refused.
    """
    stuck = {c for c, w in rules.items() if len(w) == 1}
    while (kept := {c for c in stuck if rules[c][0] in stuck}) != stuck:
        stuck = kept
    if stuck:
        raise ValueError(f"letters {sorted(stuck)} never expand under the rules")
    k, power = 1, rules
    while min(len(w) for w in power.values()) < n:
        k, power = k + 1, {c: _apply(rules, w) for c, w in power.items()}
    return k, power


def _pair_closure(spec: Substitution) -> frozenset:
    """Two-letter junction closure seeded from every letter's image.

    Any 2-block of any iterate sits inside the image of a letter or
    straddles the junction rules[c][-1] + rules[d][0] of a previously seen
    2-block cd, so adding junctions to a fixed point collects exactly the
    candidate 2-blocks.
    """
    rules = spec.mapping()
    pairs = {img[i:i + 2] for img in rules.values()
             for i in range(len(img) - 1)}
    todo = list(pairs)
    while todo:
        c, d = todo.pop()
        junction = rules[c][-1] + rules[d][0]
        if junction not in pairs:
            pairs.add(junction)
            todo.append(junction)
    return frozenset(pairs)


def language(spec: SubshiftSpec, n: int):
    """Sorted length-n words of the subshift.

    Exact for Periodic always and for primitive Substitution rules; an
    ExplicitWindow lists the blocks of its finite stretch and refuses
    n beyond the declared horizon.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    return list(_language(spec, n))


@functools.lru_cache(maxsize=256)
def _language(spec: SubshiftSpec, n: int) -> tuple[str, ...]:
    if isinstance(spec, Periodic):
        words = sorted(set(_orbit_windows(spec.word, n)))
    elif isinstance(spec, ExplicitWindow):
        w = spec.left + spec.right
        if n > spec.horizon:
            raise HorizonExhausted(
                f"horizon exhausted: window trusted to {spec.horizon}, need {n}")
        if n > len(w):
            raise HorizonExhausted(
                f"horizon exhausted: window holds {len(w)} letters, need {n}")
        words = sorted({w[i:i + n] for i in range(len(w) - n + 1)})
    elif len(alphabet(spec)) == 1:
        words = [alphabet(spec)[0] * n]
    else:
        power = _power(spec.mapping(), n)[1]
        words = sorted({w for pair in _pair_closure(spec)
                        for w in _windows(power, pair, n)})
    return tuple(words)


def _orbit_windows(word: str, n: int) -> list[str]:
    """The n-letter windows of the periodic word's orbit, one per phase."""
    reps = word * (n // len(word) + 2)
    return [reps[i:i + n] for i in range(len(word))]


def constant_length(spec: Substitution):
    lens = {len(w) for _, w in spec.rules}
    return lens.pop() if len(lens) == 1 else None


def _is_bijective(spec: Substitution) -> bool:
    s = constant_length(spec)
    if s is None:
        return False
    letters = alphabet(spec)
    rules = spec.mapping()
    return all(len({rules[c][j] for c in letters}) == len(letters)
               for j in range(s))


def check_minimal_aperiodic(spec: SubshiftSpec) -> dict:
    """Minimality and aperiodicity verdicts, each True/False/"unknown"."""
    if isinstance(spec, Periodic):
        return {"minimal": True, "aperiodic": False}
    if isinstance(spec, ExplicitWindow):
        return {"minimal": "unknown", "aperiodic": "unknown",
                "approximate": True}
    if not is_primitive(spec):
        return {"minimal": False, "aperiodic": "unknown"}
    # stabilized complexity is a conclusive periodicity certificate; for a
    # bijective rule its absence up to |A| + 1 letters is one too
    bijective = _is_bijective(spec)
    last = len(alphabet(spec)) if bijective else 39
    for n in range(1, last + 1):
        if len(language(spec, n)) == len(language(spec, n + 1)):
            return {"minimal": True, "aperiodic": False}
    return {"minimal": True, "aperiodic": True if bijective else "unknown"}


# -- exact invariant measures ---------------------------------------------

def block_substitution(spec: Substitution, n: int):
    """Induced substitution on length-n blocks.

    The image of a block is the run of n-windows of sigma(block) starting
    at each position of the first letter's image; the tail letters always
    supply the n-1 letters those windows need.
    """
    rules = spec.mapping()
    blocks = language(spec, n)
    return blocks, {u: _windows(rules, u, n) for u in blocks}


@functools.lru_cache(maxsize=None)
def _spec_perron(spec: Substitution):
    """(lambda, 1 / lambda) once per spec: every length shares a field.

    Never evicted: the cached 2-block measures are combined with powers
    of 1 / lambda at every other length, and number fields must not mix.
    A rule of constant length s gives Fraction(s), since every column of
    its incidence matrix sums to s.
    """
    lam = perron_eigenvalue(incidence_matrix(spec))
    return lam, 1 / lam


def measure_vector(spec: SubshiftSpec, n: int) -> dict:
    """Exact invariant probabilities of all length-n cylinders.

    Each value is a Fraction, or an AlgebraicNumber in the field of the
    Perron eigenvalue when that eigenvalue is irrational.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    return dict(_measures(spec, n))


@functools.lru_cache(maxsize=256)
def _measures(spec: SubshiftSpec, n: int) -> tuple:
    """(word, measure) pairs over language(spec, n), in its order."""
    if isinstance(spec, ExplicitWindow):
        raise UnsupportedSpec("not uniquely ergodic / unsupported spec")
    if isinstance(spec, Periodic):
        counts = collections.Counter(_orbit_windows(spec.word, n))
        return tuple((w, Fraction(counts[w], len(spec.word)))
                     for w in sorted(counts))
    if not is_primitive(spec):
        raise UnsupportedSpec("not uniquely ergodic / unsupported spec")
    blocks = language(spec, n)
    if len(blocks) == 1:
        # one word (a one-letter alphabet) carries all the mass; the
        # rule {1: "1"} never grows, so it could not be pushed
        return ((blocks[0], Fraction(1)),)
    mu = _nullspace_measure(spec, n) if n == 2 else _pushed_measure(spec, n)
    if not all(x > 0 for x in mu):
        raise ValueError("Perron vector not strictly positive")
    return tuple(zip(blocks, mu))


def _pushed_measure(spec: Substitution, n: int) -> list:
    """Length-n measures pushed from the 2-block ones through sigma^k.

    With k from _power, an occurrence of w in sigma^k(y) starts inside
    sigma^k(y[i]) for one i and ends inside sigma^k(y[i:i + 2]); the
    2-block y[i:i + 2] has frequency mu_2, and sigma^k stretches lengths
    by lambda^k, so mu_n(w) = lambda^-k * sum over v in L(2) of
    mu_2(v) * #{j < |sigma^k(v[0])| : sigma^k(v)[j:j+n] = w}
    (Queffelec, Substitution Dynamical Systems, LNM 1294).
    """
    k, power = _power(spec.mapping(), n)
    acc: dict = {}
    for v, x in _measures(spec, 2):
        for w in _windows(power, v, n):
            acc[w] = acc[w] + x if w in acc else x
    blocks = language(spec, n)
    if set(acc) != set(blocks):
        raise ValueError("block images do not cover the language")
    scale = math.prod([_spec_perron(spec)[1]] * k)
    return [acc[u] * scale for u in blocks]


def _nullspace_measure(spec: Substitution, n: int) -> list:
    """Normalized kernel of (block matrix - lambda), over language(spec, n)."""
    blocks, sub = block_substitution(spec, n)
    lam = _spec_perron(spec)[0]
    mat = [[Fraction(sub[u].count(v)) for u in blocks] for v in blocks]
    for i in range(len(blocks)):
        mat[i][i] = mat[i][i] - lam
    v = nullspace_vector(mat)
    total = sum(v)
    return [x / total for x in v]
