"""Diagonal cost Hamiltonians over binary variables and encoding conversions.

The package-wide sign convention ties bit values to Z eigenvalues as
``bit b -> spin 1 - 2*b``, i.e. bit 0 is spin +1 and bit 1 is spin -1.
A Hamiltonian is a map from sorted variable-index subsets to real
coefficients; the empty subset holds the constant offset.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, FormatError, ResourceError

Subset = tuple[int, ...]
SpinConfig = tuple[int, ...]

# Fourier coefficients at or below this magnitude are dropped.
COEFF_PRUNE = 1e-12

# Truth-table conversions allocate 2^n floats; desk-scale cap.
MAX_TABLE_VARS = 24

# States pack into int64 integers, variable j on bit j, up to this many.
MAX_PACKED_VARS = 62

# Entries per block of vectorized work: energy slabs of exhaustive scans,
# (terms, states) parity matrices, blocks of coupling tables. Small
# enough that a block's temporaries stay in the L2 cache.
SLAB_ENTRIES = 1 << 16


def _check_packable(objective, what: str) -> None:
    if objective.n_vars > MAX_PACKED_VARS:
        raise ResourceError(
            f"{what} packs states into 64-bit integers; {objective.n_vars} variables "
            f"exceed the {MAX_PACKED_VARS}-variable limit"
        )


def column_sums(block: np.ndarray) -> np.ndarray:
    """Column sums of a (terms, states) block, each column added from its
    first row down. numpy adds the rows of a wider block in order but sums
    a lone column pairwise, so that one goes through ``cumsum``."""
    if block.shape[1] == 1:
        block = block.cumsum(axis=0)[-1:]
    return block.sum(axis=0)


def bits_to_int(x: SpinConfig) -> int:
    """Pack a bit sequence into an integer (variable j is bit j)."""
    out = 0
    for j, b in enumerate(x):
        if b:
            out |= 1 << j
    return out


def int_to_bits(state: int, n_vars: int) -> SpinConfig:
    """Unpack a state integer into a bit tuple of length n_vars."""
    return tuple((state >> j) & 1 for j in range(n_vars))


def readonly_array(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as an array of the given dtype."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PolyHamiltonian:
    """Diagonal operator  sum_S J(S) * prod_{j in S} Z_j  on n binary variables.

    ``terms`` maps strictly ascending index tuples to finite nonzero
    coefficients. Instances are immutable after construction and safe to
    share across threads; :meth:`evaluate` is pure. A Hamiltonian of up to
    ``MAX_PACKED_VARS`` variables is also an optimizer objective: ``energies``
    and ``scan_chunks`` read its terms on packed states, variable j on bit
    j, adding a state's terms in sorted order as :meth:`evaluate` does.
    """

    n_vars: int
    terms: dict[Subset, float]

    def __post_init__(self):
        if self.n_vars < 1:
            raise DomainError("n_vars must be a positive integer")
        for subset, coeff in self.terms.items():
            if not isinstance(subset, tuple):
                raise FormatError(f"subset {subset!r} must be a tuple")
            if any(subset[i] >= subset[i + 1] for i in range(len(subset) - 1)):
                raise FormatError(f"subset {subset} must be strictly ascending")
            if subset and (subset[0] < 0 or subset[-1] >= self.n_vars):
                raise FormatError(f"subset {subset} out of range for n_vars={self.n_vars}")
            if not math.isfinite(coeff):
                raise FormatError(f"coefficient for {subset} is not finite")
            if coeff == 0.0:
                raise FormatError(f"coefficient for {subset} must be nonzero")
        # Energies, cut-offs, windows and penalties stay within a few times
        # the summed |coefficient|; that headroom must not overflow either.
        if not math.isfinite(4.0 * sum(abs(c) for c in self.terms.values())):
            raise FormatError("coefficient magnitudes sum past the float range; rescale the problem")

    @classmethod
    def from_terms(cls, n_vars: int, items) -> "PolyHamiltonian":
        """Build from (subset, coeff) pairs, merging duplicate subsets."""
        merged: dict[Subset, float] = {}
        for subset, coeff in items:
            key = tuple(sorted(set(subset)))
            if len(key) != len(tuple(subset)):
                raise FormatError(f"subset {subset} contains repeated indices")
            merged[key] = merged.get(key, 0.0) + float(coeff)
        return cls(n_vars, {s: c for s, c in merged.items() if c != 0.0})

    # -- basic queries ----------------------------------------------------

    @property
    def constant(self) -> float:
        return self.terms.get((), 0.0)

    def is_pure_quadratic(self) -> bool:
        """True iff every non-constant term acts on exactly two variables."""
        return all(len(s) == 2 for s in self.terms if s)

    def split(self, communities) -> list["PolyHamiltonian"]:
        """Per disjoint ascending member tuple, the terms on those variables,
        ``members[j]`` re-indexed to j, in one pass over the terms; the
        constant and every term reaching outside its community are dropped."""
        place = {v: (c, j) for c, members in enumerate(communities) for j, v in enumerate(members)}
        parts: list[dict[Subset, float]] = [{} for _ in communities]
        for subset, coeff in self.terms.items():
            if not subset or subset[0] not in place:
                continue
            c = place[subset[0]][0]
            local = []
            for v in subset:
                where = place.get(v)
                if where is None or where[0] != c:
                    break
                local.append(where[1])
            else:
                parts[c][tuple(local)] = coeff
        return [PolyHamiltonian(len(members), terms) for members, terms in zip(communities, parts)]

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x: SpinConfig) -> float:
        """Energy of a configuration, summed in canonical sorted-subset order."""
        if len(x) != self.n_vars:
            raise DimensionError(
                f"configuration has {len(x)} bits, Hamiltonian has {self.n_vars} variables"
            )
        total = 0.0
        for subset in sorted(self.terms):
            sign = 1
            for j in subset:
                if x[j]:
                    sign = -sign
            total += self.terms[subset] * sign
        return total

    @cached_property
    def _term_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every term as an int64 bit mask and its coefficient, in sorted
        term order; ``energies`` reads these. Refuses more than
        ``MAX_PACKED_VARS`` variables, which int64 states cannot name."""
        _check_packable(self, "a polynomial objective")
        subsets = sorted(self.terms)
        masks = np.array(
            [sum(1 << j for j in s) for s in subsets], dtype=np.int64
        )
        coeffs = np.array([self.terms[s] for s in subsets], dtype=np.float64)
        return masks, coeffs

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Vectorized energies for an array of packed state integers.

        Each block of states is one (terms, states) matrix of signed term
        values, about ``SLAB_ENTRIES`` entries, whose ``column_sums`` add
        every state's terms in sorted term order whatever the block.
        """
        states = np.asarray(states, dtype=np.int64)
        flat = states.ravel()
        out = np.empty(flat.shape)
        masks, coeffs = self._term_arrays
        step = max(1, SLAB_ENTRIES // max(1, masks.size))
        for lo in range(0, flat.size, step):
            odd = np.bitwise_count(flat[lo:lo + step] & masks[:, None]) & 1
            out[lo:lo + step] = column_sums(np.where(odd, -coeffs[:, None], coeffs[:, None]))
        return out.reshape(states.shape)

    def scan_chunks(self):
        """Energies of all packed states in index order, as (first state,
        energies) chunks of up to ``SLAB_ENTRIES`` consecutive states."""
        total = 1 << self.n_vars
        for start in range(0, total, SLAB_ENTRIES):
            stop = min(start + SLAB_ENTRIES, total)
            yield start, self.energies(np.arange(start, stop, dtype=np.int64))

    # -- conversions ------------------------------------------------------

    @classmethod
    def from_boolean_table(cls, values) -> "PolyHamiltonian":
        """Parity-basis expansion of a real-valued truth table.

        ``values[x]`` is the function value on the configuration whose bit j
        is bit j of the row index x. The returned Hamiltonian reproduces the
        table exactly up to the coefficients at or below ``COEFF_PRUNE``,
        which are dropped. Refuses more than ``MAX_TABLE_VARS`` variables.
        """
        vals = np.asarray(values, dtype=np.float64)
        size = vals.size
        if size < 2 or size & (size - 1):
            raise FormatError("truth table size must be a power of two (>= 2)")
        n = size.bit_length() - 1
        if n > MAX_TABLE_VARS:
            raise ResourceError(f"truth table over {n} variables exceeds the {MAX_TABLE_VARS}-variable cap")
        spectrum = vals.copy()
        step = 1
        while step < size:
            spectrum = spectrum.reshape(-1, 2 * step)
            left = spectrum[:, :step].copy()
            right = spectrum[:, step:].copy()
            spectrum[:, :step] = left + right
            spectrum[:, step:] = left - right
            spectrum = spectrum.reshape(-1)
            step *= 2
        spectrum /= size
        terms: dict[Subset, float] = {}
        for mask in range(size):
            coeff = float(spectrum[mask])
            if abs(coeff) > COEFF_PRUNE:
                terms[tuple(j for j in range(n) if (mask >> j) & 1)] = coeff
        return cls(n, terms)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_vars,
            "terms": [
                {"vars": list(s), "coeff": self.terms[s]} for s in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolyHamiltonian":
        """Inverse of ``to_json_dict``. ``n`` and every ``vars`` entry must
        be integral numbers, not booleans; anything else raises FormatError."""
        try:
            n = _json_int(data["n"])
            raw = data["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"problem JSON must carry an integer 'n' and 'terms': {exc}") from exc
        if not isinstance(raw, list):
            raise FormatError(f"problem JSON 'terms' must be a list, got {raw!r}")
        terms: dict[Subset, float] = {}
        for entry in raw:
            try:
                subset = tuple(_json_int(v) for v in entry["vars"])
                coeff = float(entry["coeff"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"bad term entry {entry!r}: {exc}") from exc
            if list(subset) != sorted(set(subset)):
                raise FormatError(f"term vars {list(subset)} must be ascending and distinct")
            if subset in terms:
                raise FormatError(f"duplicate subset {list(subset)}")
            terms[subset] = coeff
        return cls(n, {s: c for s, c in terms.items() if c != 0.0})


def _json_int(value) -> int:
    """An integer field of problem JSON: an int, or a float with an integral
    value; a boolean or anything else raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not integral")
    return int(value)


def parse_edge_list(text: str) -> PolyHamiltonian:
    """Parse the pure-quadratic text format: one ``u v w`` triple per line.

    Blank lines and lines starting with ``#`` are skipped, except a
    ``# n=<count>`` header, which ``format_edge_list`` writes: it is the
    only explicit variable count, so vertices without edges above the
    largest index are kept. The first header counts. Without one the count
    is the largest index plus one. A vertex at or above the count, and a
    duplicate pair, are rejected.
    """
    terms: dict[Subset, float] = {}
    seen: set[Subset] = set()
    n_vars, max_index, max_line = None, -1, 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        header = re.fullmatch(r"#\s*n\s*=\s*(\d+)", stripped)
        if header and n_vars is None:
            n_vars = int(header[1])
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 'u v w', got {stripped!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if u == v:
            raise FormatError(f"line {lineno}: self-coupling {u} {v} is not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        if w != 0.0:
            terms[key] = w
        if max(u, v) > max_index:
            max_index, max_line = max(u, v), lineno
    if n_vars is None:
        if max_index < 0:
            raise FormatError("edge list holds no edges and no '# n=' header")
        n_vars = max_index + 1
    if max_index >= n_vars:
        raise FormatError(f"line {max_line}: vertex {max_index} is out of range for n={n_vars}")
    return PolyHamiltonian(n_vars, terms)


def format_edge_list(h: PolyHamiltonian) -> str:
    """Render a pure-quadratic Hamiltonian in the ``u v w`` text format."""
    if not h.is_pure_quadratic() or () in h.terms:
        raise DomainError("edge-list format requires a pure-quadratic Hamiltonian without constant")
    lines = [f"# n={h.n_vars}"]
    for (u, v) in sorted(h.terms):
        lines.append(f"{u} {v} {h.terms[(u, v)]!r}")
    return "\n".join(lines) + "\n"


def load_problem(path: str) -> PolyHamiltonian:
    """Load a problem from a ``.json`` file or an edge-list text file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        return PolyHamiltonian.from_json_dict(data)
    return parse_edge_list(text)
