"""The per-array Q-network the flat-buffer :mod:`repro.drl.network` replaced.

Kept verbatim as the oracle of ``test_network_differential.py``: each
weight, bias, gradient and Adam moment is its own array, every step
allocates its temporaries, and ``copy_weights_from`` / ``load_state_dict``
rebind the parameter lists.  The flat-buffer network must reproduce it
bit for bit.  Not used by the library.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import NetworkShapeError


class AdamOptimizer:
    """Adam with per-parameter first/second moment estimates."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        """Apply one Adam update in place to ``params``."""
        if len(params) != len(grads):
            raise NetworkShapeError("params and grads length mismatch")
        self._t += 1
        for index, (param, grad) in enumerate(zip(params, grads)):
            if param.shape != grad.shape:
                raise NetworkShapeError(
                    f"param {index} shape {param.shape} != grad shape {grad.shape}"
                )
            m = self._m.setdefault(index, np.zeros_like(param))
            v = self._v.setdefault(index, np.zeros_like(param))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class MLP:
    """Fully-connected network: ReLU hidden layers, linear output."""

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Sequence[int],
        output_size: int,
        rng: np.random.Generator,
        learning_rate: float = 1e-3,
    ) -> None:
        if input_size <= 0 or output_size <= 0:
            raise NetworkShapeError("layer sizes must be positive")
        self.input_size = input_size
        self.output_size = output_size
        self.hidden_sizes = tuple(hidden_sizes)
        sizes = [input_size, *hidden_sizes, output_size]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He initialisation for ReLU
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.optimizer = AdamOptimizer(learning_rate=learning_rate)
        self._cache: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #

    def forward(self, inputs: np.ndarray, remember: bool = False) -> np.ndarray:
        """Compute Q-values for a batch (or single) observation.

        ``inputs`` has shape ``(batch, input_size)`` or ``(input_size,)``.
        Set ``remember=True`` when a backward pass will follow.
        """
        single = inputs.ndim == 1
        activations = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if activations.shape[1] != self.input_size:
            raise NetworkShapeError(
                f"expected input width {self.input_size}, got {activations.shape[1]}"
            )
        cache = [activations]
        for layer, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            pre = activations @ weight + bias
            is_output = layer == len(self.weights) - 1
            activations = pre if is_output else np.maximum(pre, 0.0)
            cache.append(activations)
        self._cache = cache if remember else None
        return activations[0] if single else activations

    def backward(self, output_grad: np.ndarray) -> None:
        """Backpropagate ``dLoss/dOutput`` and apply an Adam step."""
        if self._cache is None:
            raise NetworkShapeError("backward() requires forward(remember=True)")
        cache = self._cache
        grad = np.atleast_2d(np.asarray(output_grad, dtype=np.float64))
        if grad.shape != cache[-1].shape:
            raise NetworkShapeError(
                f"output grad shape {grad.shape} != activations {cache[-1].shape}"
            )
        weight_grads: List[np.ndarray] = [np.empty(0)] * len(self.weights)
        bias_grads: List[np.ndarray] = [np.empty(0)] * len(self.biases)
        batch = grad.shape[0]
        for layer in reversed(range(len(self.weights))):
            upstream = cache[layer]
            weight_grads[layer] = upstream.T @ grad / batch
            bias_grads[layer] = grad.mean(axis=0)
            if layer > 0:
                grad = grad @ self.weights[layer].T
                grad[cache[layer] <= 0.0] = 0.0  # ReLU gate
        self.optimizer.step(
            self.weights + self.biases, weight_grads + bias_grads
        )
        self._cache = None

    def train_on_targets(
        self,
        inputs: np.ndarray,
        action_indices: np.ndarray,
        targets: np.ndarray,
    ) -> float:
        """One TD step: MSE between Q(s, a) and ``targets``; returns loss."""
        self.forward(inputs, remember=True)
        return self.train_on_cached_targets(action_indices, targets)

    def train_on_cached_targets(
        self,
        action_indices: np.ndarray,
        targets: np.ndarray,
    ) -> float:
        """TD step reusing the activations of a ``forward(remember=True)``.

        Callers that already need the batch's Q-values (e.g. to blend
        the bootstrap target with the current estimate) can forward once
        with ``remember=True`` and train from the cache, halving the
        forward work per update.  Numerically identical to
        :meth:`train_on_targets` — the weights have not moved between
        the two passes it fuses.
        """
        if self._cache is None:
            raise NetworkShapeError(
                "train_on_cached_targets() requires forward(remember=True)"
            )
        outputs = self._cache[-1]
        rows = np.arange(outputs.shape[0])
        predictions = outputs[rows, action_indices]
        errors = predictions - targets
        loss = float(np.mean(np.square(errors)))
        grad = np.zeros_like(outputs)
        grad[rows, action_indices] = 2.0 * errors
        self.backward(grad)
        return loss

    # ------------------------------------------------------------------ #
    # Weight management
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Complete training state: parameters plus Adam moments.

        Everything needed to resume an interrupted training run
        bit-identically (used by the store's checkpoint layer).
        """
        return {
            "weights": [w.copy() for w in self.weights],
            "biases": [b.copy() for b in self.biases],
            "optimizer": {
                "m": {k: v.copy() for k, v in self.optimizer._m.items()},
                "v": {k: v.copy() for k, v in self.optimizer._v.items()},
                "t": self.optimizer._t,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (shapes must match)."""
        weights = [np.asarray(w, dtype=np.float64) for w in state["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in state["biases"]]
        if [w.shape for w in weights] != [w.shape for w in self.weights]:
            raise NetworkShapeError("checkpoint weight shapes do not match")
        self.weights = weights
        self.biases = biases
        optimizer = state.get("optimizer", {})
        self.optimizer._m = {
            int(k): np.asarray(v, dtype=np.float64)
            for k, v in optimizer.get("m", {}).items()
        }
        self.optimizer._v = {
            int(k): np.asarray(v, dtype=np.float64)
            for k, v in optimizer.get("v", {}).items()
        }
        self.optimizer._t = int(optimizer.get("t", 0))
        self._cache = None

    def copy_weights_from(self, other: "MLP") -> None:
        """Overwrite this network's parameters with ``other``'s."""
        if (
            other.input_size != self.input_size
            or other.output_size != self.output_size
            or other.hidden_sizes != self.hidden_sizes
        ):
            raise NetworkShapeError("cannot copy weights between unlike networks")
        self.weights = [w.copy() for w in other.weights]
        self.biases = [b.copy() for b in other.biases]

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def memory_bytes(self) -> int:
        """Bytes held by the parameters (Fig. 11(b) memory accounting)."""
        return sum(w.nbytes for w in self.weights) + sum(b.nbytes for b in self.biases)

    def save(self, path) -> None:
        """Persist the weights to an ``.npz`` archive.

        Only parameters are stored (not optimiser moments): the use case
        is shipping a trained policy for inference, Section VII-F style.
        """
        arrays = {}
        for index, weight in enumerate(self.weights):
            arrays[f"w{index}"] = weight
        for index, bias in enumerate(self.biases):
            arrays[f"b{index}"] = bias
        arrays["shape"] = np.array(
            [self.input_size, *self.hidden_sizes, self.output_size]
        )
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path, rng: np.random.Generator, learning_rate: float = 1e-3) -> "MLP":
        """Restore a network saved with :meth:`save`."""
        with np.load(path) as archive:
            shape = archive["shape"].astype(int)
            network = cls(
                input_size=int(shape[0]),
                hidden_sizes=tuple(int(s) for s in shape[1:-1]),
                output_size=int(shape[-1]),
                rng=rng,
                learning_rate=learning_rate,
            )
            network.weights = [
                archive[f"w{index}"].copy()
                for index in range(len(network.weights))
            ]
            network.biases = [
                archive[f"b{index}"].copy()
                for index in range(len(network.biases))
            ]
        return network

    def clone(self, rng: np.random.Generator) -> "MLP":
        """Structural copy with identical weights (fresh optimiser state)."""
        twin = MLP(
            self.input_size,
            self.hidden_sizes,
            self.output_size,
            rng,
            learning_rate=self.optimizer.learning_rate,
        )
        twin.copy_weights_from(self)
        return twin
