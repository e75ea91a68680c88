"""Similarity-aware continual learning for small spiking neural networks.

The toolkit covers: a minimal reverse-mode tensor core, leaky
integrate-and-fire dynamics with a surrogate spike derivative, an expandable
masked network that adds units per task, KL-based task similarity,
gradient-driven selective reuse/pruning, task streams, energy accounting,
and a batch experiment runner.
"""

from .metrics import AccuracyMatrix, EnergyReport, count_active, energy, flops_estimate, forgetting
from .network import ConvSpec, DenseSpec, Network, init_first_task
from .plasticity import association, expansion_counts
from .similarity import SimilarityRecord, compute_anchors, kl_estimate, similarity_score, similarity_vector
from .spiking import LIFConfig, lif_step, run_window, surrogate_grad
from .streams import GaussianClass, SyntheticTaskSpec, TaskDescriptor, default_synthetic_stream, load_idx, mixed_alternating, permuted_stream, rotated_stream, split_stream, synthetic_stream
from .tensor import Tensor, backward, conv2d
from .trainer import Adam, ReplayBuffer, TrainConfig, calibrate_heads, cil_evaluate, learn_task, til_evaluate

__version__ = "0.1.0"
