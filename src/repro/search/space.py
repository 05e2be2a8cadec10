"""The elastic MBConv search space: genotypes and seeded mutations.

A :class:`Genotype` is a compact, hashable description of one chain
candidate over the zoo's MBConv backbone template
(:func:`repro.generator.zoo._mbconv_backbone` idiom): per stage, a
channel width chosen from the stage's choice set and a sequence of
blocks, each an (expansion, kernel) pair. The three mutation operators
mirror once-for-all elastic axes:

- **depth** — add or remove a block at the end of one stage;
- **width** — move one stage's channels to an adjacent choice;
- **kernel** — flip one block's depthwise kernel (3 / 5 / 7).

Every operator draws from a caller-supplied ``numpy`` generator and
stays inside the space's bounds, so the candidate stream is a pure
function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nnir.graph import Layer, Network
from repro.nnir.ops import (
    Activation,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    InvertedBottleneck,
    Linear,
    TensorShape,
)

__all__ = [
    "MUTATION_KINDS",
    "EvolutionSpace",
    "Genotype",
    "LayerMemo",
    "mutate",
    "random_genotype",
]

#: The elastic axes a child can differ from its parent along.
MUTATION_KINDS = ("depth", "width", "kernel")

#: One block: (expansion ratio, depthwise kernel size).
Block = tuple[int, int]

#: A :class:`LayerMemo` value: one block's layer, or the stem's or head's layers.
_Entry = Layer | tuple[Layer, ...]


@dataclass(frozen=True)
class EvolutionSpace:
    """Bounds and choice sets of the elastic chain space.

    The default space builds networks of at most
    ``2 + sum(max_blocks) + 5`` layers (stem conv + activation, the
    blocks, head conv + activation + pool + flatten + classifier) —
    sized to fit inside the zoo suite's
    :class:`~repro.core.representation.NetworkEncoder` (MobileNetV2
    alone guarantees 24 layers of headroom).
    """

    channel_choices: tuple[tuple[int, ...], ...] = (
        (16, 24, 32),
        (24, 32, 40),
        (48, 64, 80),
        (80, 96, 112),
    )
    stage_strides: tuple[int, ...] = (2, 2, 2, 1)
    expansions: tuple[int, ...] = (1, 3, 6)
    kernels: tuple[int, ...] = (3, 5, 7)
    min_blocks: int = 1
    max_blocks: int = 4
    stem: int = 16
    head: int = 320
    resolution: int = 160
    n_classes: int = 1000
    activation: str = "relu6"

    def __post_init__(self) -> None:
        if len(self.channel_choices) != len(self.stage_strides):
            raise ValueError("channel_choices and stage_strides must align")
        if not 1 <= self.min_blocks <= self.max_blocks:
            raise ValueError("need 1 <= min_blocks <= max_blocks")

    @property
    def n_stages(self) -> int:
        return len(self.channel_choices)

    @property
    def max_network_layers(self) -> int:
        """Layer count of the deepest network the space can produce."""
        return 2 + self.n_stages * self.max_blocks + 5


@dataclass(frozen=True)
class Genotype:
    """One candidate: per-stage channel width + (expansion, kernel) blocks."""

    stage_widths: tuple[int, ...]
    blocks: tuple[tuple[Block, ...], ...]

    @property
    def n_blocks(self) -> int:
        return sum(len(stage) for stage in self.blocks)

    def to_network(
        self, space: EvolutionSpace, name: str, layers: LayerMemo | None = None
    ) -> Network:
        """Materialize the genotype as an immutable chain network.

        ``layers`` is an optional run-owned :class:`LayerMemo` of finished
        layers, keyed by position and block gene. A layer found there is
        taken as is, the same object for every candidate that has it; a
        layer missing from it is built and stored. Without one, every
        layer is built. Either way the network has equal layers, so the
        same shapes, content hash, encoding and work. Genes are read as
        ints, so a numpy integer gene builds the same layer as a plain
        one. A memo serves one space only and refuses any other.
        """
        memo = {} if layers is None else layers.entries_for(space)
        built = [*_stem(space, memo)]
        channels = space.stem
        for stage, (width, stage_blocks) in enumerate(zip(self.stage_widths, self.blocks)):
            stride = space.stage_strides[stage]
            for expansion, kernel in stage_blocks:
                position = len(built)
                key = (position, channels, width, expansion, kernel, stride)
                layer = memo.get(key)
                if layer is None:
                    op = InvertedBottleneck(
                        in_channels=int(channels),
                        out_channels=int(width),
                        expansion=int(expansion),
                        kernel=int(kernel),
                        stride=stride,
                        use_se=False,
                        activation=space.activation,
                    )
                    layer = memo.setdefault(key, Layer(op, (position - 1,)))
                built.append(layer)
                channels = width
                stride = 1
        built += _head(space, memo, len(built), channels)
        return Network(name, TensorShape(3, space.resolution, space.resolution), built)


class LayerMemo:
    """Finished chain layers of one :class:`EvolutionSpace`, for one run.

    Maps a layer's position and block gene, as plain ints, to the frozen
    :class:`~repro.nnir.graph.Layer` built for it: ``(position, in
    channels, width, expansion, kernel, stride)`` for a block, ``(0,)``
    for the two stem layers and ``(position, channels)`` for the five
    head layers. Everything else a layer holds comes from the space, so
    the memo is bound to one and :meth:`entries_for` refuses another.
    Layers are immutable, and a concurrent miss keeps the first layer
    stored (``dict.setdefault``), so thread workers can share one memo.

    ``run_search`` owns one per run and hands it to its executor as the
    map's shared object. It is not a dict on purpose: ``Executor.map``
    rebuilds every dict, list and tuple in its shared payload on each
    call, which would give every generation an empty copy.
    """

    __slots__ = ("space", "_entries")

    def __init__(self, space: EvolutionSpace) -> None:
        self.space = space
        self._entries: dict[tuple[int, ...], _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries_for(self, space: EvolutionSpace) -> dict[tuple[int, ...], _Entry]:
        """The memo's entries, after checking that ``space`` is its space."""
        if space is not self.space and space != self.space:
            raise ValueError("this layer memo belongs to a different EvolutionSpace")
        return self._entries


def _stem(space: EvolutionSpace, memo: dict) -> tuple[Layer, ...]:
    """The stem conv and its activation, from the memo when present."""
    stem = memo.get((0,))
    if stem is None:
        stem = memo.setdefault(
            (0,),
            (
                Layer(Conv2d(3, space.stem, 3, 2, 1)),
                Layer(Activation(space.activation), (0,)),
            ),
        )
    return stem


def _head(space: EvolutionSpace, memo: dict, position: int, channels: int) -> tuple[Layer, ...]:
    """The five head layers from ``position`` on, after ``channels``."""
    key = (position, channels)
    head = memo.get(key)
    if head is None:
        head = memo.setdefault(
            key,
            (
                Layer(Conv2d(int(channels), space.head, 1, 1, 0), (position - 1,)),
                Layer(Activation(space.activation), (position,)),
                Layer(GlobalAvgPool(), (position + 1,)),
                Layer(Flatten(), (position + 2,)),
                Layer(Linear(space.head, space.n_classes), (position + 3,)),
            ),
        )
    return head


def _choice(rng: np.random.Generator, options: tuple) -> object:
    return options[int(rng.integers(len(options)))]


def random_genotype(space: EvolutionSpace, rng: np.random.Generator) -> Genotype:
    """A uniformly sampled genotype inside the space's bounds."""
    widths: list[int] = []
    blocks: list[tuple[Block, ...]] = []
    for stage in range(space.n_stages):
        widths.append(int(_choice(rng, space.channel_choices[stage])))
        depth = int(rng.integers(space.min_blocks, space.max_blocks + 1))
        blocks.append(
            tuple(
                (int(_choice(rng, space.expansions)), int(_choice(rng, space.kernels)))
                for _ in range(depth)
            )
        )
    return Genotype(stage_widths=tuple(widths), blocks=tuple(blocks))


def _mutate_depth(
    genotype: Genotype, space: EvolutionSpace, rng: np.random.Generator
) -> Genotype:
    stage = int(rng.integers(space.n_stages))
    stage_blocks = list(genotype.blocks[stage])
    grow = bool(rng.integers(2))
    can_grow = len(stage_blocks) < space.max_blocks
    can_shrink = len(stage_blocks) > space.min_blocks
    if not can_grow and not can_shrink:
        return genotype
    if (grow and can_grow) or not can_shrink:
        stage_blocks.append(
            (int(_choice(rng, space.expansions)), int(_choice(rng, space.kernels)))
        )
    else:
        stage_blocks.pop()
    blocks = list(genotype.blocks)
    blocks[stage] = tuple(stage_blocks)
    return Genotype(stage_widths=genotype.stage_widths, blocks=tuple(blocks))


def _mutate_width(
    genotype: Genotype, space: EvolutionSpace, rng: np.random.Generator
) -> Genotype:
    stage = int(rng.integers(space.n_stages))
    choices = space.channel_choices[stage]
    if len(choices) == 1:
        return genotype
    index = choices.index(genotype.stage_widths[stage])
    if index == 0:
        index += 1
    elif index == len(choices) - 1:
        index -= 1
    else:
        index += 1 if rng.integers(2) else -1
    widths = list(genotype.stage_widths)
    widths[stage] = int(choices[index])
    return Genotype(stage_widths=tuple(widths), blocks=genotype.blocks)


def _mutate_kernel(
    genotype: Genotype, space: EvolutionSpace, rng: np.random.Generator
) -> Genotype:
    stage = int(rng.integers(space.n_stages))
    stage_blocks = list(genotype.blocks[stage])
    b = int(rng.integers(len(stage_blocks)))
    expansion, kernel = stage_blocks[b]
    others = tuple(k for k in space.kernels if k != kernel)
    stage_blocks[b] = (expansion, int(_choice(rng, others)))
    blocks = list(genotype.blocks)
    blocks[stage] = tuple(stage_blocks)
    return Genotype(stage_widths=genotype.stage_widths, blocks=tuple(blocks))


_MUTATORS = {
    "depth": _mutate_depth,
    "width": _mutate_width,
    "kernel": _mutate_kernel,
}


def mutate(
    genotype: Genotype, space: EvolutionSpace, rng: np.random.Generator
) -> tuple[Genotype, str]:
    """One elastic mutation; returns ``(child, mutation kind)``.

    Width stages with a single channel choice cannot change; the kind
    is resampled (bounded) until the child differs from the parent, so
    every returned child is a genuinely new point unless the space is
    degenerate.
    """
    for _ in range(8):
        kind = str(_choice(rng, MUTATION_KINDS))
        child = _MUTATORS[kind](genotype, space, rng)
        if child != genotype:
            return child, kind
    return genotype, kind
