"""Hyperdimensional computing + cognitive map learners for maze navigation.

The package builds a hierarchy of small, independently prepared neural
modules that together drive a simulated robot through a sequence of goal
objects in randomly generated grid mazes:

- ``hdc``: bipolar/real hypervector algebra (similarity, bundling,
  binding, permutation, dictionary cleanup).
- ``cml``: cognitive map learner over an abstract object graph; plans
  near-optimal paths from the graph's minimum-norm flow table.
- ``grid``: grid-position map learner with four shared cardinal actions
  and touch-sensor gating.
- ``maze``: the 10x20 three-room maze environment with doors and objects.
- ``semantic_map``: the bound-and-bundled object/position memory and the
  permutation-encoded goal policy.
- ``mission``: the hierarchical executor wiring policy -> object hops ->
  map lookups -> grid navigation.
- ``experiments`` / ``cli``: seeded benchmark harness.
"""

__version__ = "0.1.0"
