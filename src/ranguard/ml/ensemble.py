"""The one base of the tree models: a decision tree, a forest, boosted stumps.

A model is a list of trees with one weight per tree (a DecisionTree is its
own only tree, of weight 1), and its vote is compiled from each tree's own
node arrays. Every walk goes left on x <= threshold, so a NaN feature goes
right, and adds each tree's weight to its leaf class in tree order; the
argmax breaks ties toward the lowest class index. A row runs the trees as
generated Python code, nested if/else blocks per tree, as in Asadi et al.
(TKDE 2014), and a matrix runs its rows through that code one at a time.
When every weight is 1 (a tree, a forest), that vote stops as soon as one
class holds a strict majority of the trees, the early exit of Cambazoglu et
al. (WSDM 2010); the label is the one the full vote gives.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ranguard.records import define

if TYPE_CHECKING:
    from ranguard.ml.tree import DecisionTree

# Tree nodes per generated vote function, which bounds the memory compile()
# takes (a whole forest as one function takes tens of MB); a larger tree
# continues in further functions.
_FUNC_NODES = 512
# Nesting levels per generated function: Python's tokenizer stops at 100, and
# a subtree below this depth continues in a further function.
_FUNC_DEPTH = 40


def check_tree(tree: DecisionTree) -> None:
    """ValueError unless every walk from the root reaches a leaf in bounds."""
    n_features, n_classes = tree.n_features, tree.n_classes
    n = len(tree.feature)
    if n == 0:
        raise ValueError("tree has no nodes")
    for name in ("feature", "threshold", "left", "right"):
        if getattr(tree, name).shape != (n,):
            raise ValueError(f"{name} has shape {getattr(tree, name).shape}, expected ({n},)")
    if tree.counts.shape != (n, n_classes):
        raise ValueError(f"counts has shape {tree.counts.shape}, expected ({n}, {n_classes})")
    if ((tree.feature < -1) | (tree.feature >= n_features)).any():
        raise ValueError(f"feature index outside [0, {n_features})")
    if not np.isfinite(tree.threshold).all():
        raise ValueError("non-finite threshold")
    # Training numbers children after their parent, which also rules out cycles.
    internal = tree.feature >= 0
    index = np.arange(n)
    for child in (tree.left, tree.right):
        bad = internal & ((child <= index) | (child >= n))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"node {i} has child {int(child[i])}, expected one in ({i}, {n})")


class TreeModel:
    """Base of the tree models: a vote over `trees`, with one entry of `weights` per tree.

    A forest or an AdaBoost model is made from trees whose structure was checked
    when each DecisionTree was made; a DecisionTree is its own only tree.
    """

    def __init__(
        self, trees: Sequence[DecisionTree], weights: Sequence[float], n_features: int, n_classes: int
    ) -> None:
        trees, weights = list(trees), [float(w) for w in weights]
        if not trees or len(trees) != len(weights):
            raise ValueError("need one weight per tree, at least one tree")
        for tree in trees:
            if tree.n_features != n_features or tree.n_classes != n_classes:
                raise ValueError(
                    f"tree has {tree.n_features} features and {tree.n_classes} classes, "
                    f"model has {n_features} and {n_classes}"
                )
        if not all(map(math.isfinite, weights)):
            raise ValueError("non-finite tree weight")
        self.trees = trees
        self.weights = weights
        self.n_features = n_features
        self.n_classes = n_classes

    @cached_property
    def _vote(self) -> list:
        """The one-row vote as generated functions, compiled on first use, so a
        model that never predicts never holds them; each function is compiled
        as soon as it is complete, and its source dropped.

        Each function takes the score list and the row, which it unpacks into
        the locals x0..x{d-1}. It runs its trees as nested if/else blocks, in
        tree order, and returns the index of the function to run next, or
        ~class once the vote is decided. A tree over _FUNC_NODES nodes or
        _FUNC_DEPTH levels deep is cut into several functions: a cut returns
        the index of the function that holds the subtree, and every function
        of that tree ends by returning the index of the next tree's function,
        so no call nests in another. The source holds only numbers that the
        load checks passed: feature and class indices as int, thresholds and
        weights as repr(float).
        """
        # sums of unit weights are exact, so a class past half the total has won: stop there
        majority = len(self.weights) / 2 if all(w == 1.0 for w in self.weights) else None
        funcs: list = [[]]  # body lines of each function, until it is compiled
        used = [0]  # nodes in each function
        unpack = "[" + ", ".join(f"x{i}" for i in range(self.n_features)) + "] = x"

        def new_function() -> int:
            funcs.append([])
            used.append(0)
            return len(funcs) - 1

        def emit(k: int, root: int, tree: list[list]) -> list[tuple[int, int]]:
            """Append the subtree at root of tree's (feature, threshold, klass, left, right)
            lists to function k; (function, node) of each subtree cut off."""
            feature, threshold, klass, left, right = tree
            lines, cuts = funcs[k], []
            stack = [(root, 1)]  # (node, level); node -1 is the else of its level
            while stack:
                node, level = stack.pop()
                pad = " " * (level - 1)
                if node < 0:
                    lines.append(f"{pad}else:")
                elif feature[node] < 0:
                    lines.append(f"{pad}c = {klass[node]}")
                    used[k] += 1
                elif used[k] >= _FUNC_NODES or level > _FUNC_DEPTH:
                    cuts.append((new_function(), node))
                    lines.append(f"{pad}return {cuts[-1][0]}")
                else:
                    lines.append(f"{pad}if x{feature[node]} <= {threshold[node]!r}:")
                    used[k] += 1
                    stack += [(right[node], level + 1), (-1, level), (left[node], level + 1)]
            return cuts

        def close(k: int, last_line: str) -> None:
            """Compile function k, ending in last_line, in place of its source lines."""
            doc = "Add some trees' votes on row x to s; the next function's index, or ~class."
            funcs[k] = define("vote", "s, x", doc, [unpack] + funcs[k] + [last_line])

        last = len(self.trees) - 1
        for t, (tree, weight) in enumerate(zip(self.trees, self.weights)):
            lists = [a.tolist() for a in (tree.feature, tree.threshold, tree.klass, tree.left, tree.right)]
            k = len(funcs) - 1
            if used[k] and used[k] + len(tree.feature) > _FUNC_NODES:  # a tree that fits one function gets one
                close(k, f"return {new_function()}")
                k += 1
            tail = [f"s[c] += {weight!r}"]
            # after tree t a class holds at most t + 1 votes, so no earlier tree can end the vote
            if majority is not None and t + 1 > majority:
                tail.append(f"if s[c] > {majority!r}: return ~c")
            work, touched = [(k, 0)], []
            while work:
                j, node = work.pop()
                touched.append(j)
                work += emit(j, node, lists)
            for j in touched:
                funcs[j] += tail
            if t == last or len(touched) > 1:  # each function of a cut tree hands over to the next tree
                nxt = "return ~s.index(max(s))" if t == last else f"return {new_function()}"
                for j in touched:
                    close(j, nxt)
        return funcs

    def predict(self, x: Sequence[float]) -> int:
        """Class index for one feature row."""
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")
        if isinstance(x, np.ndarray):
            x = x.tolist()
        scores = [0.0] * self.n_classes
        vote = self._vote
        i = 0
        while i >= 0:
            i = vote[i](scores, x)
        return ~i

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Class index per row of an (n, n_features) matrix, each row run as predict runs it."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) matrix, got shape {X.shape}")
        # one row at a time: a list copy of the whole matrix would take several times its bytes
        return np.fromiter(map(self.predict, X), dtype=np.intp, count=len(X))

