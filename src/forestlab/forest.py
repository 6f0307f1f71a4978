"""Decision trees and forests over a finite probe space.

A forest reads an input tuple u in [alphabet]^cells through independent
decision trees, one per output coordinate.  Each tree probes input cells
along a root-to-leaf path and never probes the same cell twice on a path.
Outputs are plain integer symbols; a reserved sentinel value equal to the
output alphabet size stands for the blank symbol when the output space
allows it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

DEFAULT_STATE_BUDGET = 1 << 26
DEFAULT_SET_BUDGET = 1 << 22

# Partial assignments bind a subset of input cells to fixed symbols.
PartialAssignment = Mapping[int, int]


class BudgetError(RuntimeError):
    """An exact computation would exceed its declared state budget."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


class UsageError(ValueError):
    """A request that is malformed rather than merely expensive."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


@dataclass(frozen=True)
class InputSpace:
    """Uniform product space of `cells` coordinates over [alphabet]."""

    cells: int
    alphabet: int

    def __post_init__(self):
        if self.cells < 1:
            raise UsageError("bad_space", "input space needs at least one cell")
        if self.alphabet < 2:
            raise UsageError("bad_space", "input alphabet must have size >= 2")

    def state_count(self) -> int:
        return self.alphabet ** self.cells

    def enumerable(self, budget: int = DEFAULT_STATE_BUDGET) -> bool:
        return self.state_count() <= budget


@dataclass(frozen=True)
class OutputSpace:
    """Output tuples of `cells` symbols over [alphabet], blank optional.

    The blank symbol is encoded as the integer `alphabet` (one past the
    ordinary symbols) so outputs stay plain unsigned ints.
    """

    cells: int
    alphabet: int
    bot_allowed: bool = False

    def __post_init__(self):
        if self.cells < 1:
            raise UsageError("bad_space", "output space needs at least one cell")
        if self.alphabet < 1:
            raise UsageError("bad_space", "output alphabet must have size >= 1")

    @property
    def bot(self) -> int | None:
        return self.alphabet if self.bot_allowed else None


@dataclass(frozen=True)
class Leaf:
    value: int


@dataclass(frozen=True)
class Internal:
    query: int
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise UsageError("bad_tree", "internal node has no children")


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class DecisionTree:
    root: Node


@dataclass(frozen=True)
class Transcript:
    """Probe sequence and final value of one tree evaluation."""

    steps: tuple  # ordered (cell, observed symbol) pairs
    value: int


class _NodeTable(NamedTuple):
    """Every node of a forest as one row, tree after tree, in preorder.

    A row is (query, value, depth, children): the probed cell or -1 at a
    leaf, the leaf value or -1 at an internal node, the node's depth, and
    the row ids of its children (empty at a leaf).  Tree t owns the rows
    from roots[t] up to the next tree's root.
    """

    rows: list
    roots: list

    def tree_rows(self, tree: int) -> list:
        end = self.roots[tree + 1] if tree + 1 < len(self.roots) else len(self.rows)
        return self.rows[self.roots[tree] : end]


def _tabulate(space: InputSpace, out: OutputSpace, trees: tuple) -> _NodeTable:
    """Validate every tree and return the forest's node table."""
    rows: list = []
    limit = out.alphabet + (1 if out.bot_allowed else 0)
    cells, lam = space.cells, space.alphabet

    def _validate_node(node: Node, path: set, depth: int) -> None:
        """Check one subtree and append its rows."""
        if isinstance(node, Leaf):
            if not 0 <= node.value < limit:
                raise UsageError("bad_leaf", f"leaf value {node.value} outside output range")
            rows.append((-1, node.value, depth, ()))
            return
        if not isinstance(node, Internal):
            raise UsageError("bad_tree", f"unknown node type {type(node).__name__}")
        cell = node.query
        if not 0 <= cell < cells:
            raise UsageError("bad_query", f"query {cell} outside input space")
        if cell in path:
            raise UsageError("repeat_query", f"cell {cell} probed twice on a path")
        if len(node.children) != lam:
            raise UsageError(
                "bad_fanout",
                f"node on cell {cell} has {len(node.children)} children, expected {lam}",
            )
        row = len(rows)
        rows.append(None)  # filled in once the children have row ids
        path.add(cell)
        kids = []
        for child in node.children:
            kids.append(len(rows))
            _validate_node(child, path, depth + 1)
        path.remove(cell)
        rows[row] = (cell, -1, depth, tuple(kids))

    roots = []
    for tree in trees:
        roots.append(len(rows))
        _validate_node(tree.root, set(), 0)
    return _NodeTable(rows, roots)


@dataclass(frozen=True)
class DecisionForest:
    """One decision tree per output cell, evaluated on a shared input."""

    input_space: InputSpace
    output_space: OutputSpace
    trees: tuple

    def __post_init__(self):
        if len(self.trees) != self.output_space.cells:
            raise UsageError(
                "bad_arity",
                f"{len(self.trees)} trees for {self.output_space.cells} output cells",
            )
        object.__setattr__(self, "_table", _tabulate(self.input_space, self.output_space, self.trees))

    @property
    def depth(self) -> int:
        """Length of the longest root-to-leaf path."""
        return max(depth for _, _, depth, _ in self._table.rows)

    def mentioned_cells(self) -> list:
        """Sorted list of cells probed anywhere in the forest."""
        cells = {row[0] for row in self._table.rows}
        cells.discard(-1)
        return sorted(cells)


@dataclass(frozen=True)
class BucketStructure:
    """Ordered partition of the input cells into query levels."""

    buckets: tuple

    def __post_init__(self):
        seen: set = set()
        for b in self.buckets:
            for c in b:
                if c in seen:
                    raise UsageError("bad_buckets", f"cell {c} in two buckets")
                seen.add(c)
        if seen != set(range(len(seen))) or not seen:
            raise UsageError("bad_buckets", "buckets must partition the cell range")
        object.__setattr__(self, "buckets", tuple(tuple(sorted(b)) for b in self.buckets))

    @property
    def cells(self) -> int:
        return sum(len(b) for b in self.buckets)

    def __len__(self) -> int:
        return len(self.buckets)


def is_bucketed(forest: DecisionForest, structure: BucketStructure) -> bool:
    """True when every level-t probe of every tree lands in bucket t."""
    if structure.cells != forest.input_space.cells:
        return False
    return all(
        cell < 0 or (level < len(structure) and cell in structure.buckets[level])
        for cell, _, level, _ in forest._table.rows
    )


# ---------------------------------------------------------------------------
# evaluation


def eval_tree(tree: DecisionTree, u) -> Transcript:
    """Evaluate one tree, returning the probe transcript and leaf value."""
    steps = []
    node = tree.root
    while isinstance(node, Internal):
        sym = u[node.query]
        steps.append((node.query, sym))
        node = node.children[sym]
    return Transcript(steps=tuple(steps), value=node.value)


def eval_forest(forest: DecisionForest, u) -> tuple:
    """Evaluate every tree on input u, returning the output tuple."""
    if len(u) != forest.input_space.cells:
        raise UsageError("bad_input", f"input has {len(u)} cells, expected {forest.input_space.cells}")
    lam = forest.input_space.alphabet
    for sym in u:
        if not 0 <= sym < lam:
            raise UsageError("bad_input", f"symbol {sym} outside input alphabet")
    return tuple(eval_tree(t, u).value for t in forest.trees)


# ---------------------------------------------------------------------------
# restriction and pruning


def _restrict_node(node: Node, assignment: PartialAssignment) -> Node:
    if isinstance(node, Leaf):
        return node
    if node.query in assignment:
        return _restrict_node(node.children[assignment[node.query]], assignment)
    return Internal(node.query, tuple(_restrict_node(c, assignment) for c in node.children))


def restrict(forest: DecisionForest, assignment: PartialAssignment) -> DecisionForest:
    """Hard-wire the assigned cells, short-circuiting their probes."""
    lam = forest.input_space.alphabet
    for cell, val in assignment.items():
        if not 0 <= cell < forest.input_space.cells:
            raise UsageError("bad_assignment", f"cell {cell} outside input space")
        if not 0 <= val < lam:
            raise UsageError("bad_assignment", f"value {val} outside input alphabet")
    trees = tuple(DecisionTree(_restrict_node(t.root, assignment)) for t in forest.trees)
    return DecisionForest(forest.input_space, forest.output_space, trees)


def prune_on_query_set(
    forest: DecisionForest, cells: Iterable[int], exempt_first_query: bool = False
) -> DecisionForest:
    """Replace any probe of `cells` with a blank leaf.

    With exempt_first_query the root probe of each tree is allowed even
    when it touches `cells`; only deeper probes are cut.  The result always
    permits the blank symbol.
    """
    cut = set(cells)
    out = OutputSpace(forest.output_space.cells, forest.output_space.alphabet, bot_allowed=True)
    bot = out.bot

    def prune(node: Node, is_root: bool) -> Node:
        if isinstance(node, Leaf):
            return node
        if node.query in cut and not (exempt_first_query and is_root):
            return Leaf(bot)
        return Internal(node.query, tuple(prune(c, False) for c in node.children))

    trees = tuple(DecisionTree(prune(t.root, True)) for t in forest.trees)
    return DecisionForest(forest.input_space, out, trees)


# ---------------------------------------------------------------------------
# exhaustive cube evaluation (shared by the analysis layer)


def _digits(idx: np.ndarray, rank: int, lam: int) -> np.ndarray:
    if lam == 2:
        return (idx >> rank) & 1
    return (idx // (lam ** rank)) % lam


def _check_enum_budget(lam: int, ncells: int, budget: int) -> int:
    states = lam ** ncells
    if states > budget:
        raise BudgetError(
            "enum_budget",
            f"{lam}^{ncells} states exceed the enumeration budget {budget}",
        )
    return states


def cube_order(forest: DecisionForest, extra_cells: Iterable[int] = ()) -> list:
    """Cells that matter for exhaustive work: probed ones plus extras."""
    return sorted(set(forest.mentioned_cells()) | set(extra_cells))


def _route(forest: DecisionForest, tree: int, rows: np.ndarray, symbol):
    """Split `rows` down one tree, yielding (query, value, rows reaching it) per node.

    Nodes come in preorder.  `symbol(rows, cell)` gives the symbol each row
    holds at `cell`: a cube digit or an entry of an input row.  A node's
    rows are split with one mask per symbol and dropped once split.
    """
    table = forest._table.rows
    top = forest.input_space.alphabet - 1
    stack = [(forest._table.roots[tree], rows)]
    while stack:
        node, rows = stack.pop()
        cell, value, _, kids = table[node]
        yield cell, value, rows
        if cell >= 0:
            sym = symbol(rows, cell)
            for v in range(top, -1, -1):
                reached = rows[sym == v]
                if reached.size:
                    stack.append((kids[v], reached))
            del sym, reached


def _leaf_values(forest: DecisionForest, tree: int, rows: np.ndarray, symbol, out: np.ndarray):
    """Set out[r] to the leaf value one tree gives row r, for every r in rows."""
    for cell, value, reached in _route(forest, tree, rows, symbol):
        if cell < 0:
            out[reached] = value


def _count_probes(forest: DecisionForest, rows: np.ndarray, symbol, counts: np.ndarray, column):
    """Add one to counts[r, column[cell]] for each probe any tree makes on row r."""
    for tree in range(len(forest.trees)):
        for cell, _, reached in _route(forest, tree, rows, symbol):
            if cell >= 0:
                counts[reached, column[cell]] += 1


def _cube_symbols(cells_order: list, lam: int):
    """Symbols of cube points: the cell at position rank is digit rank of the index."""
    rank_of = {c: r for r, c in enumerate(cells_order)}
    return lambda rows, cell: _digits(rows, rank_of[cell], lam)


def _input_symbols(inputs: np.ndarray):
    """Symbols of explicit input rows: row r holds inputs[r, cell] at cell."""
    return lambda rows, cell: inputs[rows, cell]


def eval_forest_on_cube(
    forest: DecisionForest,
    cells_order: list | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> np.ndarray:
    """All outputs over the cube, as an (assignments, trees) matrix.

    Assignment index i encodes symbol (i // lam**rank) % lam for the cell at
    position rank in cells_order.  Cells outside cells_order must not be
    probed by the forest.
    """
    if cells_order is None:
        cells_order = cube_order(forest)
    lam = forest.input_space.alphabet
    n = _check_enum_budget(lam, len(cells_order), budget)
    width = forest.output_space.alphabet + 1
    dtype = np.uint8 if width <= 255 else np.int32
    out = np.empty((n, len(forest.trees)), dtype=dtype)
    rows = np.arange(n, dtype=np.int64)
    symbol = _cube_symbols(cells_order, lam)
    for tree in range(len(forest.trees)):
        _leaf_values(forest, tree, rows, symbol, out[:, tree])
    return out


def packed_outputs_on_cube(
    forest: DecisionForest,
    cells_order: list | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> np.ndarray | None:
    """Outputs over the cube packed into one integer key per assignment.

    Keys are big-endian base (alphabet+1) over tree outputs.  Returns None
    when the packed range does not fit a signed 64-bit integer; callers then
    fall back to tuple-keyed dictionaries.
    """
    if cells_order is None:
        cells_order = cube_order(forest)
    base = forest.output_space.alphabet + 1
    m = len(forest.trees)
    if m * math.log2(base) > 62:
        return None
    lam = forest.input_space.alphabet
    n = _check_enum_budget(lam, len(cells_order), budget)
    rows = np.arange(n, dtype=np.int64)
    symbol = _cube_symbols(cells_order, lam)
    packed = np.zeros(n, dtype=np.int64)
    col = np.empty(n, dtype=np.int64)
    for tree in range(m):
        _leaf_values(forest, tree, rows, symbol, col)
        packed *= base
        packed += col
    return packed


def unpack_output_key(key: int, m: int, base: int) -> tuple:
    digits = []
    for _ in range(m):
        key, d = divmod(key, base)
        digits.append(d)
    return tuple(reversed(digits))


def query_counts_on_cube(
    forest: DecisionForest,
    cells_order: list | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple:
    """Per-assignment probe counts for every cell in cells_order.

    Returns (counts, cells_order) where counts[i, r] is the number of trees
    probing cells_order[r] on assignment i.
    """
    if cells_order is None:
        cells_order = cube_order(forest)
    lam = forest.input_space.alphabet
    n = _check_enum_budget(lam, len(cells_order), budget)
    if n * max(1, len(cells_order)) > (1 << 28):
        raise BudgetError("enum_budget", "probe-count table would exceed the state budget")
    rank_of = {c: r for r, c in enumerate(cells_order)}
    counts = np.zeros((n, len(cells_order)), dtype=np.uint16)
    symbol = _cube_symbols(cells_order, lam)
    _count_probes(forest, np.arange(n, dtype=np.int64), symbol, counts, rank_of)
    return counts, cells_order


# ---------------------------------------------------------------------------
# query profiles


@dataclass(frozen=True)
class QueryProfile:
    """Expected probe counts and tail rates per input cell."""

    expected: tuple  # E[count_j] per cell
    tail: tuple  # Pr[count_j > mu] per cell
    mu: float
    mode: str
    trials: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class LipschitzReport:
    average_ok: bool
    tail_ok: bool
    worst_cell: int
    mu: float
    delta: float


@dataclass(frozen=True)
class LocalityReport:
    max_tree_cells: int
    influence: tuple  # trees touching each cell


def expected_query_counts(forest: DecisionForest) -> np.ndarray:
    """Exact E[count_j] per cell via node reach probabilities.

    A node at depth t is reached by a uniform input with probability
    alphabet^-t, because the path fixes t distinct cells.  Summing over
    nodes probing cell j gives the expectation without enumeration.
    """
    lam = forest.input_space.alphabet
    ec = [0.0] * forest.input_space.cells
    for cell, _, depth, _ in forest._table.rows:
        if cell >= 0:
            ec[cell] += lam ** (-depth)
    return np.array(ec, dtype=np.float64)


def _leaf_mass(forest: DecisionForest, value: int) -> float:
    """Expected number of trees that end at a leaf labelled `value`.

    Leaf reach probabilities alphabet^-depth are summed in preorder.
    """
    lam = forest.input_space.alphabet
    acc = 0.0
    for _, leaf, depth, _ in forest._table.rows:
        if leaf == value:  # internal rows hold -1
            acc += lam ** (-depth)
    return acc


def _deep_probe_mass(forest: DecisionForest, cells: set) -> float:
    """Expected number of probes below the roots that land in `cells`.

    Reach probabilities are summed per tree in preorder, then across trees.
    """
    lam = forest.input_space.alphabet
    total = 0.0
    for tree in range(len(forest.trees)):
        acc = 0.0
        for cell, _, depth, _ in forest._table.tree_rows(tree):
            if depth >= 1 and cell in cells:
                acc += lam ** (-depth)
        total += acc
    return total


def _leaf_labels(forest: DecisionForest) -> set:
    """Values of the leaves of every tree."""
    return {value for _, value, _, _ in forest._table.rows} - {-1}


def query_profile(
    forest: DecisionForest,
    mu: float,
    mode: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
    budget: int = DEFAULT_STATE_BUDGET,
) -> QueryProfile:
    """Distribution summary of per-cell probe counts under a uniform input.

    Exact mode enumerates assignments of the probed cells (unprobed cells
    cannot change any count).  Monte-Carlo mode draws `trials` uniform
    inputs with a counter-based generator keyed by `seed`.
    """
    s = forest.input_space.cells
    if mode == "exact":
        counts, order = query_counts_on_cube(forest, budget=budget)
        expected = np.zeros(s)
        tail = np.zeros(s)
        if counts.shape[0]:
            expected[order] = counts.mean(axis=0)
            tail[order] = (counts > mu).mean(axis=0)
        return QueryProfile(tuple(expected), tuple(tail), float(mu), "exact")
    if mode != "monte_carlo":
        raise UsageError("bad_mode", f"unknown profile mode {mode!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    lam = forest.input_space.alphabet
    inputs = rng.integers(0, lam, size=(trials, s), dtype=np.uint8)
    counts = np.zeros((trials, s), dtype=np.uint16)
    _count_probes(forest, np.arange(trials, dtype=np.int64), _input_symbols(inputs), counts, range(s))
    return QueryProfile(
        tuple(counts.mean(axis=0)),
        tuple((counts > mu).mean(axis=0)),
        float(mu),
        "monte_carlo",
        trials=trials,
        seed=seed,
    )


def check_lipschitz(profile: QueryProfile, mu: float, delta: float) -> LipschitzReport:
    """Evaluate both smoothness readings of a profile at (mu, delta)."""
    if profile.mu != mu:
        raise UsageError("profile_mismatch", "profile was computed for a different mu")
    expected = np.asarray(profile.expected)
    tail = np.asarray(profile.tail)
    average_ok = bool(expected.max(initial=0.0) <= mu + 1e-12)
    tail_ok = bool(tail.max(initial=0.0) <= delta + 1e-12)
    if not average_ok:
        worst = int(np.argmax(expected))
    elif not tail_ok:
        worst = int(np.argmax(tail))
    else:
        worst = int(np.argmax(expected)) if expected.size else 0
    return LipschitzReport(average_ok, tail_ok, worst, float(mu), float(delta))


def locality(forest: DecisionForest) -> LocalityReport:
    """Probe footprint: cells per tree and trees per cell."""
    influence = [0] * forest.input_space.cells
    worst = 0
    for tree in range(len(forest.trees)):
        cells = {row[0] for row in forest._table.tree_rows(tree)} - {-1}
        worst = max(worst, len(cells))
        for c in cells:
            influence[c] += 1
    return LocalityReport(worst, tuple(influence))


# ---------------------------------------------------------------------------
# serialization


def _node_to_json(node: Node, bot: int | None):
    if isinstance(node, Leaf):
        if bot is not None and node.value == bot:
            return {"leaf": None}
        return {"leaf": node.value}
    return {"query": node.query, "children": [_node_to_json(c, bot) for c in node.children]}


def _node_from_json(obj, bot: int | None) -> Node:
    if "leaf" in obj:
        val = obj["leaf"]
        if val is None:
            if bot is None:
                raise UsageError("bad_leaf", "blank leaf in a forest without blanks")
            return Leaf(bot)
        return Leaf(int(val))
    return Internal(int(obj["query"]), tuple(_node_from_json(c, bot) for c in obj["children"]))


def forest_to_json(forest: DecisionForest) -> dict:
    bot = forest.output_space.bot
    return {
        "input_arity": forest.input_space.cells,
        "input_alphabet": forest.input_space.alphabet,
        "output_alphabet": forest.output_space.alphabet,
        "bot_allowed": forest.output_space.bot_allowed,
        "trees": [_node_to_json(t.root, bot) for t in forest.trees],
    }


def forest_from_json(obj: dict) -> DecisionForest:
    space = InputSpace(int(obj["input_arity"]), int(obj["input_alphabet"]))
    bot_allowed = bool(obj["bot_allowed"])
    trees = obj["trees"]
    out = OutputSpace(len(trees), int(obj["output_alphabet"]), bot_allowed)
    parsed = tuple(DecisionTree(_node_from_json(t, out.bot)) for t in trees)
    return DecisionForest(space, out, parsed)


def dumps_forest(forest: DecisionForest) -> str:
    return json.dumps(forest_to_json(forest), indent=1)


def loads_forest(text: str) -> DecisionForest:
    return forest_from_json(json.loads(text))
