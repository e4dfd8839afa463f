"""Few-shot prompt-context learning for frozen vision-language backbones.

Learnable context vectors are optimized against a composite objective:
cross-entropy on the support set, a consistency pull toward the mean of a
generated-prompt ensemble, and knowledge distillation from an
outlier-pruned teacher ensemble. Encoders stay frozen throughout; only
the context moves. The API is imported from the submodules
(``bmcoop.trainer``, ``bmcoop.objective``, ...); ``bmcoop.cli`` is the
command line.
"""

__version__ = "0.1.0"
