"""tailshare: head/tail task decomposition for long-tailed classification.

Splits a long-tailed single-label problem into a head task and a tail
task, trains them through a three-stage pipeline with a shared encoder,
and selects the shared depth and task weights by a computable
bias-variance proxy built from diagonal empirical Fisher statistics.
Exact information-theoretic oracles validate the proxy at desk scale.
Import each name from its module: `from tailshare.pipeline import full_run`.
"""

from . import datagen, errors, infotheory, nn, oracle, pipeline, proxy

__version__ = "0.1.0"
