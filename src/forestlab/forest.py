"""Decision trees and forests over a finite probe space.

A forest reads an input tuple u in [alphabet]^cells through independent
decision trees, one per output coordinate.  Each tree probes input cells
along a root-to-leaf path and never probes the same cell twice on a path.
Outputs are plain integer symbols; a reserved sentinel value equal to the
output alphabet size stands for the blank symbol when the output space
allows it.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

DEFAULT_STATE_BUDGET = 1 << 26
DEFAULT_SET_BUDGET = 1 << 22
# cube points a slab walk fills, or a probe-count histogram bins, at once
CUBE_SLAB = 1 << 20

# Partial assignments bind a subset of input cells to fixed symbols.
PartialAssignment = Mapping[int, int]


class _ReasonedError(Exception):
    """An error that names its reason beside its message."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message

    def __reduce__(self):
        # args holds the message alone, so the default reduction would drop the reason
        return type(self), (self.reason, self.message)


class BudgetError(_ReasonedError, RuntimeError):
    """An exact computation would exceed its declared state budget."""


class UsageError(_ReasonedError, ValueError):
    """A request that is malformed rather than merely expensive."""


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


def _unroll(rows: list, row: int, leaf, internal):
    """The subtree at `row` built bottom-up: leaf(value) at leaves, internal(cell, children) above."""
    cell, value, _, kids = rows[row]
    return leaf(value) if cell < 0 else internal(cell, [_unroll(rows, k, leaf, internal) for k in kids])


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

    @classmethod
    def _from_table(cls, space: InputSpace, out: OutputSpace, table: _NodeTable) -> "DecisionForest":
        """A forest over an already valid node table; `trees` is rebuilt from it on first use."""
        forest = object.__new__(cls)
        vars(forest).update(input_space=space, output_space=out, _table=table)
        return forest

    def __getattr__(self, name: str):
        # only `trees` of a forest from _from_table is ever missing; it is rebuilt once
        if name != "trees":
            raise AttributeError(name)
        internal = lambda cell, kids: Internal(cell, tuple(kids))
        trees = tuple(DecisionTree(_unroll(self._table.rows, r, Leaf, internal)) for r in self._table.roots)
        object.__setattr__(self, "trees", trees)
        return trees

    def __getstate__(self) -> dict:
        # caches such as `_flat` and a walk's `_heaviest_step` are rebuilt on use, so a pickle holds the forest alone
        return {k: v for k, v in vars(self).items() if k in ("input_space", "output_space", "trees", "_table")}

    @functools.cached_property
    def _flat(self) -> tuple:
        """The node table as the arrays (cell, value, kids, offset) that `_walk` reads, built on first use."""
        cell, value, _, children = zip(*self._table.rows)
        sizes = np.array([len(c) for c in children], dtype=np.intp)
        kids = np.array([kid for c in children for kid in c], dtype=np.intp)
        return np.array(cell, dtype=np.intp), np.array(value, dtype=np.intp), kids, np.cumsum(sizes) - sizes

    @functools.cached_property
    def depth(self) -> int:
        """Length of the longest root-to-leaf path, found on first read."""
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


def _copy_table(forest: DecisionForest, out: OutputSpace, pick, trees: tuple | None = None) -> DecisionForest:
    """Copy `forest`'s node table in preorder, renumbering depths and child ids; never re-validated.

    pick(row, depth) gives the row standing in for parent row `row`: it, a descendant, or a new leaf.
    `trees` holds the indices of the trees to copy, in order; all of them by default.
    """
    rows, roots = [], []
    selected = forest._table.roots if trees is None else [forest._table.roots[t] for t in trees]
    stack = [(root, 0, roots) for root in reversed(selected)]
    while stack:
        row, depth, siblings = stack.pop()
        cell, value, _, kids = pick(row, depth)
        siblings.append(len(rows))
        rows.append((cell, value, depth, []))
        stack.extend((kid, depth + 1, rows[-1][3]) for kid in reversed(kids))
    table = [(cell, value, depth, tuple(kids)) for cell, value, depth, kids in rows]
    return DecisionForest._from_table(forest.input_space, out, _NodeTable(table, roots))


def restrict(forest: DecisionForest, assignment: PartialAssignment) -> DecisionForest:
    """Hard-wire the assigned cells: a node-table copy that steps through their probes, never re-validated."""
    for cell, val in assignment.items():
        if not 0 <= cell < forest.input_space.cells:
            raise UsageError("bad_assignment", f"cell {cell} outside input space")
        if not 0 <= val < forest.input_space.alphabet:
            raise UsageError("bad_assignment", f"value {val} outside input alphabet")
    table = forest._table.rows

    def pick(row: int, depth: int) -> tuple:
        node = table[row]
        while node[0] in assignment:
            node = table[node[3][assignment[node[0]]]]
        return node

    return _copy_table(forest, forest.output_space, pick)


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
    table = forest._table.rows

    def pick(row: int, depth: int) -> tuple:
        cell = table[row][0]
        if cell >= 0 and cell in cut and not (exempt_first_query and depth == 0):
            return (-1, out.bot, depth, ())
        return table[row]

    return _copy_table(forest, out, pick)


# ---------------------------------------------------------------------------
# exhaustive cube evaluation (shared by the analysis layer)


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


def _walk(forest: DecisionForest, tree: int, inputs: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """The node-table row of the leaf one tree reaches on each input row.

    All rows move down together, a level at a time: node n probes cell[n]
    (-1 at a leaf) and its children are kids[offset[n]:], so a row at a
    probe moves to kids[offset[n] + its symbol].  With `counts`, each probe
    of cell c on row r also adds 1 to counts[r, c].
    """
    cell, _, kids, offset = forest._flat
    node = np.full(inputs.shape[0], forest._table.roots[tree], dtype=np.intp)
    ids, at = np.arange(node.size), node
    while ids.size:
        probed = cell[at]
        going = probed >= 0
        if not going.all():
            ids, at, probed = ids[going], at[going], probed[going]
        if counts is not None:
            counts[ids, probed] += 1
        at = offset[at]  # in place from here on: one array fewer alive at a time
        at += inputs[ids, probed]
        node[ids] = at = kids[at]
    return node


def _blocks(forest: DecisionForest, tree: int, rank_of: dict):
    """Walk one tree in preorder, yielding (query, value, index) per node.

    The cube is C-order over (lam,)*K with K = len(rank_of), so the cell at
    rank r sits on axis K-1-r.  `index` is a basic index that fixes the
    symbol of each cell on the node's path and spans every other axis:
    cube[index] is the block of points that reach the node.
    """
    table = forest._table.rows
    stack = [(forest._table.roots[tree], (slice(None),) * len(rank_of))]
    while stack:
        node, index = stack.pop()
        cell, value, _, kids = table[node]
        yield cell, value, index
        if cell >= 0:
            axis = len(index) - 1 - rank_of[cell]
            stack.extend((kids[v], index[:axis] + (v,) + index[axis + 1 :]) for v in reversed(range(len(kids))))


def _draw_generator(trials: int, seed: int) -> np.random.Generator:
    """The counter-based generator keyed by `seed` for a draw of `trials` rows; refuses a negative seed or count."""
    if seed < 0:
        raise UsageError("bad_seed", f"seed must be non-negative, got {seed}")
    if trials < 0:
        raise UsageError("bad_trials", f"trials must be non-negative, got {trials}")
    return np.random.Generator(np.random.Philox(seed))


def _uniform_inputs(space: InputSpace, trials: int, seed: int) -> np.ndarray:
    """`trials` uniform input rows from a counter-based generator keyed by `seed`.

    Symbols are drawn as the narrowest unsigned type that holds the
    alphabet, so alphabets up to 256 keep their uint8 streams.
    """
    dtype = np.min_scalar_type(space.alphabet - 1)
    return _draw_generator(trials, seed).integers(0, space.alphabet, size=(trials, space.cells), dtype=dtype)


def _tree_on_cube(forest: DecisionForest, tree: int, rank_of: dict, dtype) -> np.ndarray:
    """One tree's leaf values over the cube, shaped to broadcast over it.

    The table has size lam on the axes of the tree's own cells and size 1
    on every other axis; each leaf's value fills its block.
    """
    k = len(rank_of)
    shape = [1] * k
    for cell, _, _, _ in forest._table.tree_rows(tree):
        if cell >= 0:
            shape[k - 1 - rank_of[cell]] = forest.input_space.alphabet
    table = np.empty(shape, dtype=dtype)
    for cell, value, index in _blocks(forest, tree, rank_of):
        if cell < 0:
            table[index] = value
    return table


def _slab_axes(lam: int, k: int) -> int:
    """How many trailing axes of the cube (lam,)*k one slab spans: the most whose points fit in CUBE_SLAB."""
    return next(t for t in range(k, -1, -1) if lam**t <= CUBE_SLAB)


def _probe_histograms(forest: DecisionForest, cells: tuple = (), drawn: list | None = None, budget: int = DEFAULT_STATE_BUDGET):
    """(hist, free): hist[i, r, c] counts the points of the cube of `free` on which c trees probe free[r] once
    cells[j] holds drawn[i][j].

    free lists the probed cells outside the sorted `cells`; by default row b of `drawn` holds (b // lam**j) % lam
    at cells[j], for every b.  Per probed cell j, a table over the cube of the probed cells counts the trees that
    probe j; the blocks of j's nodes fix only cells probed above them, so it has size lam on their axes and 1
    elsewhere.  Tables past `budget` entries in all are refused before any is allocated; built once, they are
    kept in the forest's `vars()` like `_flat`.  Each free cell's table is read at the drawn symbols of the named
    cells it spans, binned in chunks of at most CUBE_SLAB points, and scaled by lam per free axis it spans once.
    """
    lam, m, order = forest.input_space.alphabet, forest.output_space.cells, cube_order(forest)
    free = [c for c in order if c not in cells]
    _check_enum_budget(lam, len(free), budget)
    tables = vars(forest).get("_probe_tables")
    if tables is None:
        rank = {c: r for r, c in enumerate(order)}
        nodes = [(c, index) for t in range(m) for c, _, index in _blocks(forest, t, rank) if c >= 0]
        fixed = {c: set() for c in order}  # per cell j, the axes that the block of some j-node fixes
        for cell, index in nodes:
            fixed[cell].update(a for a, i in enumerate(index) if isinstance(i, int))
    entries = sum(lam ** len(f) for f in fixed.values()) if tables is None else sum(t.size for t in tables.values())
    if entries > budget:
        raise BudgetError("enum_budget", f"{entries} probe-table entries exceed the enumeration budget {budget}")
    if tables is None:
        dtype = np.min_scalar_type(m)
        tables = {c: np.zeros([lam if a in f else 1 for a in range(len(order))], dtype) for c, f in fixed.items()}
        for cell, index in nodes:
            tables[cell][index] += 1
        vars(forest)["_probe_tables"] = tables
    drawn = np.arange(lam ** len(cells))[:, None] // lam ** np.arange(len(cells)) % lam if drawn is None else drawn
    symbols = dict(zip(cells, np.array(drawn, dtype=np.intp).reshape(len(drawn), len(cells)).T))
    hist = np.zeros((len(drawn), len(free), m + 1), dtype=np.int64)
    for r, table in enumerate(tables[c] for c in free):
        # axis 0 holds the last cell of `order`, `% n` reads a size-1 axis at 0, a leading axis puts the draws first
        index = [symbols[c] % n if c in symbols else slice(None) for c, n in zip(order[::-1], table.shape)]
        count = table[None][(np.zeros(len(drawn), dtype=np.intp), *index)]
        points = math.prod(count.shape[1:])  # the points of the cube of `free` that one draw reads
        count = count.reshape(-1)
        for start in range(0, count.size, CUBE_SLAB):
            chunk = count[start : start + CUBE_SLAB]
            keys = (start + np.arange(chunk.size)) // points * (m + 1) + chunk
            hist[:, r] += np.bincount(keys, minlength=hist[:, r].size).reshape(-1, m + 1)
        hist[:, r] *= lam ** len(free) // points
    return hist, free


def _cell_tails(hist: np.ndarray, order: list, cells: int, threshold: float) -> np.ndarray:
    """tail[i, j] = Pr[count_j > threshold] over hist[i]'s points per input cell j, and 0 for j off `order`."""
    tail = np.zeros((len(hist), cells))
    tail[:, order] = hist[..., np.arange(hist.shape[-1]) > threshold].sum(axis=-1) / hist.sum(axis=-1)
    return tail


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
    for tree in range(forest.output_space.cells):
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

    Exact mode counts over the cube of the probed cells, from one table per
    cell (unprobed cells cannot change any count).  Monte-Carlo mode draws
    `trials` uniform inputs with a counter-based generator keyed by `seed`.
    """
    s = forest.input_space.cells
    if mode == "exact":
        hist, order = _probe_histograms(forest, budget=budget)
        expected = np.zeros(s)
        expected[order] = hist[0] @ np.arange(hist.shape[-1]) / hist[0].sum(axis=-1)
        return QueryProfile(tuple(expected), tuple(_cell_tails(hist, order, s, mu)[0]), float(mu), "exact")
    if mode != "monte_carlo":
        raise UsageError("bad_mode", f"unknown profile mode {mode!r}")
    if trials < 1:
        raise UsageError("bad_trials", f"trials must be at least 1, got {trials}")
    inputs = _uniform_inputs(forest.input_space, trials, seed)
    counts = np.zeros((trials, s), dtype=np.min_scalar_type(forest.output_space.cells))
    for tree in range(forest.output_space.cells):
        _walk(forest, tree, inputs, counts)
    return QueryProfile(
        tuple(counts.mean(axis=0)),
        tuple((counts > mu).mean(axis=0)),
        float(mu),
        "monte_carlo",
        trials=trials,
        seed=seed,
    )


def check_lipschitz(profile: QueryProfile, delta: float) -> LipschitzReport:
    """Evaluate both smoothness readings of a profile at (profile.mu, delta)."""
    expected = np.asarray(profile.expected)
    tail = np.asarray(profile.tail)
    average_ok = bool(expected.max(initial=0.0) <= profile.mu + 1e-12)
    tail_ok = bool(tail.max(initial=0.0) <= delta + 1e-12)
    if not average_ok:
        worst = int(np.argmax(expected))
    elif not tail_ok:
        worst = int(np.argmax(tail))
    else:
        worst = int(np.argmax(expected)) if expected.size else 0
    return LipschitzReport(average_ok, tail_ok, worst, profile.mu, float(delta))


# ---------------------------------------------------------------------------
# serialization


def _json_int(value, reason: str, what: str) -> int:
    """A JSON integer; floats and booleans raise UsageError(reason)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(reason, f"{what} must be an integer, got {value!r}")
    return value


def _node_from_json(obj, bot: int | None) -> Node:
    if "leaf" in obj:
        val = obj["leaf"]
        if val is None:
            if bot is None:
                raise UsageError("bad_leaf", "blank leaf in a forest without blanks")
            return Leaf(bot)
        return Leaf(_json_int(val, "bad_file", "leaf"))
    query = _json_int(obj["query"], "bad_file", "query")
    return Internal(query, tuple(_node_from_json(c, bot) for c in obj["children"]))


def forest_to_json(forest: DecisionForest) -> dict:
    bot = forest.output_space.bot
    leaf = lambda value: {"leaf": None if value == bot else value}
    internal = lambda cell, kids: {"query": cell, "children": kids}
    return {
        "input_arity": forest.input_space.cells,
        "input_alphabet": forest.input_space.alphabet,
        "output_alphabet": forest.output_space.alphabet,
        "bot_allowed": forest.output_space.bot_allowed,
        "trees": [_unroll(forest._table.rows, root, leaf, internal) for root in forest._table.roots],
    }


def forest_from_json(obj: dict) -> DecisionForest:
    space = InputSpace(*(_json_int(obj[key], "bad_file", key) for key in ("input_arity", "input_alphabet")))
    bot_allowed = obj["bot_allowed"]
    if not isinstance(bot_allowed, bool):
        raise UsageError("bad_file", f"bot_allowed must be a boolean, got {bot_allowed!r}")
    trees = obj["trees"]
    out = OutputSpace(len(trees), _json_int(obj["output_alphabet"], "bad_file", "output_alphabet"), bot_allowed)
    parsed = tuple(DecisionTree(_node_from_json(t, out.bot)) for t in trees)
    return DecisionForest(space, out, parsed)


def dumps_forest(forest: DecisionForest) -> str:
    return json.dumps(forest_to_json(forest), indent=1)

