"""Multi-agent grid pathfinding workbench.

A shared tabular policy trained with replicator dynamics against
automaton-shaped reach-avoid rewards, classical planning and tabular
learning baselines, and a benchmark harness over random maps.
"""

__version__ = "0.1.0"
