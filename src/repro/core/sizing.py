"""Decision algorithm for adding and removing nodes (Stage B -- Algorithm 1).

Nodes are added *quadratically* (1, 2, 4, 8, ...) so a sufficient cluster
size is reached in a logarithmic number of iterations, and removed
*linearly* (one per iteration).  When the Decision Maker runs for the first
time and the cluster is not severely overloaded, the result is 0 nodes: the
InitialReconfiguration, which only redistributes and reconfigures the
existing nodes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SizingDecision:
    """Outcome of one Algorithm 1 invocation."""

    delta: int
    initial_reconfiguration: bool = False


class SizingAlgorithm:
    """Stateful implementation of the paper's Algorithm 1."""

    def __init__(self, suboptimal_nodes_threshold: float = 0.50) -> None:
        if not 0.0 < suboptimal_nodes_threshold <= 1.0:
            raise ValueError("sub-optimal nodes threshold must be in (0, 1]")
        self.suboptimal_nodes_threshold = suboptimal_nodes_threshold
        self.nodes_to_change = 1
        self._first_time = True

    @property
    def first_time(self) -> bool:
        """Whether the next invocation is the first one."""
        return self._first_time

    def reset_growth(self) -> None:
        """Reset the quadratic growth (called when the cluster is healthy)."""
        self.nodes_to_change = 1

    def decide(self, suboptimal_nodes: float, remove: bool) -> SizingDecision:
        """Run Algorithm 1.

        Args:
            suboptimal_nodes: fraction of nodes in a sub-optimal (overloaded)
                state.
            remove: True when the cluster is *under*loaded rather than
                overloaded.
        """
        first_time = self._first_time
        self._first_time = False

        if suboptimal_nodes > self.suboptimal_nodes_threshold:
            result = self.nodes_to_change
            self.nodes_to_change *= 2
            return SizingDecision(delta=result)

        if first_time:
            # InitialReconfiguration: redistribute and reconfigure the current
            # cluster from scratch without changing its size.
            return SizingDecision(delta=0, initial_reconfiguration=True)

        if remove:
            self.nodes_to_change = 1
            return SizingDecision(delta=-1)

        result = self.nodes_to_change
        self.nodes_to_change *= 2
        return SizingDecision(delta=result)
