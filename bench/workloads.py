"""Seeded benchmark inputs: a model, its weights and its masks.

Everything here is plain numpy. The files are written in reslice's
documented version-1 JSON formats without calling reslice, so a change to
the program cannot change the inputs it is measured on.

Weights are scaled as the model is built (in the spirit of LSUV
initialisation): every channel-mixing layer is rescaled so that its output
has a fixed RMS on a seeded probe batch pushed through the *masked* model,
and a row whose output is negative on most probes has its sign flipped.
Unscaled standard-normal weights overflow float32 through the 30-block
residual stream and through the 200 chain blocks alike, which would leave
the equivalence check comparing infinities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("deep-chain", "fanout-solver", "wide-stream")
SIZES = ("full", "smoke")

PROBES = 32  # probe vectors used to scale weights

# The fan-out blocks' mask structures come from this fixed seed; a run's
# --seed relabels their channels and draws all weights. The exact solver's
# cost depends only on the structure (which consumers overlap, by how much),
# and it ranges over two orders of magnitude between random draws, so a
# structure re-drawn on every seed would make export_s measure the draw.
TEMPLATE_SEED = 2307

FANOUT_WIDTH = 64  # channels of every fan-out producer
FANOUT_CONSUMER_OUT = 8  # output width of every fan-out consumer


@dataclass
class Workload:
    name: str
    batch: tuple[int, int, int]  # N, H, W of the inference batch
    layers: list[tuple[str, str, int, int]] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)
    weights: dict[str, np.ndarray] = field(default_factory=dict)
    masks: dict[str, list[int]] = field(default_factory=dict)
    acts: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def input_width(self) -> int:
        return self.layers[0][2]

    # -- building, with probe activations of the masked model ---------------

    def _add(self, lid: str, kind: str, cin: int, cout: int, srcs: list[str]) -> str:
        self.layers.append((lid, kind, cin, cout))
        self.edges.extend((s, lid) for s in srcs)
        return lid

    def input(self, lid: str, width: int, rng: np.random.Generator) -> str:
        self.acts[lid] = rng.standard_normal((width, PROBES))
        return self._add(lid, "input", width, width, [])

    def mix(self, lid: str, src: str, cout: int, rng: np.random.Generator,
            keep: int | list[int] | None = None, rms: float = 1.0) -> str:
        """Channel mix reading ``src``. ``keep`` is a retained-column list,
        or a count kept by L2 column magnitude, or None (unmasked)."""
        x = self.acts[src]
        cin = x.shape[0]
        w = rng.standard_normal((cout, cin))
        if isinstance(keep, int):
            keep = l2_top(w, keep)
        if keep is not None:
            self.masks[lid] = sorted(int(i) for i in keep)
            y = w[:, self.masks[lid]] @ x[self.masks[lid]]
        else:
            y = w @ x
        # A row negative on most probes makes a channel the next relu
        # kills; through 200 chain blocks the whole activation can die
        # and leave nothing to compare. Flipping its sign keeps the row
        # standard normal.
        flip = np.mean(y > 0, axis=1) < 0.5
        w[flip] *= -1.0
        y[flip] *= -1.0
        energy = float(np.mean(y * y))
        # every kept input channel can be dead (relu'd to 0 on all probes)
        scale = rms / np.sqrt(energy) if energy > 0 else 1.0 / np.sqrt(cin)
        self.weights[lid] = w * scale
        self.acts[lid] = y * scale
        return self._add(lid, "channel_mix", cin, cout, [src])

    def relu(self, lid: str, src: str) -> str:
        self.acts[lid] = np.maximum(self.acts[src], 0.0)
        width = self.acts[lid].shape[0]
        return self._add(lid, "pass_through", width, width, [src])

    def add(self, lid: str, srcs: list[str]) -> str:
        self.acts[lid] = sum(self.acts[s] for s in srcs)
        width = self.acts[lid].shape[0]
        return self._add(lid, "add", width, width, srcs)

    def concat(self, lid: str, srcs: list[str]) -> str:
        self.acts[lid] = np.concatenate([self.acts[s] for s in srcs])
        width = self.acts[lid].shape[0]
        return self._add(lid, "concat", width, width, srcs)

    def output(self, lid: str, src: str) -> str:
        width = self.acts[src].shape[0]
        return self._add(lid, "output", width, width, [src])

    # -- files ----------------------------------------------------------------

    def write(self, prefix: Path) -> dict[str, Path]:
        files = {k: Path(f"{prefix}.{k}.json") for k in ("model", "weights", "masks")}
        _dump(files["model"], {
            "version": 1,
            "layers": [{"id": lid, "kind": kind, "in_channels": cin, "out_channels": cout}
                       for lid, kind, cin, cout in self.layers],
            "edges": [list(e) for e in self.edges],
        })
        _dump(files["weights"], {
            "version": 1,
            "tensors": {lid: {"shape": list(w.shape), "data": w.reshape(-1).tolist()}
                        for lid, w in self.weights.items()},
        })
        _dump(files["masks"], {"version": 1, "retained": self.masks})
        return files


def _dump(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def l2_top(w: np.ndarray, keep: int) -> list[int]:
    """The ``keep`` input columns of largest L2 norm (index breaks ties)."""
    norms = np.sqrt(np.sum(w * w, axis=0))
    order = sorted(range(w.shape[1]), key=lambda j: (-norms[j], j))
    return sorted(order[:keep])


# --------------------------------------------------------------------------
# the three workloads
# --------------------------------------------------------------------------

# Three arcs around a circle of 16 channels: no channel order makes all
# three contiguous, so the closing block of deep-chain always copies.
CLOSING_MASKS = (list(range(0, 8)), list(range(4, 12)), list(range(8, 16)) + list(range(0, 4)))


def deep_chain(seed: int, size: str) -> Workload:
    """input(16) -> mix -> relu -> [mix -> relu] x blocks -> three heads
    mix(16 -> 4) -> concat -> output.

    Every chain mix after the first keeps 10 of its 16 input columns by L2
    magnitude, so each block is one single-consumer segment. The heads'
    masks are CLOSING_MASKS relabelled by the seed, so the copy-free rescue
    and a gather run on this workload too.
    """
    blocks = 200 if size == "full" else 12
    rng = np.random.default_rng(seed)
    wl = Workload("deep-chain", batch=(2, 56, 56))
    x = wl.input("in", 16, rng)
    for i in range(blocks):
        x = wl.mix(f"m{i:03d}", x, 16, rng, keep=None if i == 0 else 10)
        x = wl.relu(f"r{i:03d}", x)
    relabel = rng.permutation(16)
    heads = [wl.mix(f"head{j}", x, 4, rng, keep=[int(relabel[c]) for c in kept])
             for j, kept in enumerate(CLOSING_MASKS)]
    wl.output("out", wl.concat("heads", heads))
    return wl


def fanout_templates(count: int) -> list[tuple[str, list[list[int]]]]:
    """Fixed block structures: (kind, per-consumer retained channels).

    Interval blocks: 8-12 consumers, each keeping a window of 8-24 of the
    64 channels, so a copy-free layout always exists. Sparse blocks: 8-10
    consumers keeping 3 scattered channels each, which drives the exact
    path search deep.
    """
    rng = np.random.default_rng(TEMPLATE_SEED)
    out = []
    for b in range(count):
        if b % 2 == 0:
            n = int(rng.integers(8, 13))
            sets = []
            for _ in range(n):
                length = int(rng.integers(8, 25))
                start = int(rng.integers(0, FANOUT_WIDTH - length + 1))
                sets.append(list(range(start, start + length)))
            out.append(("interval", sets))
        else:
            n = int(rng.integers(8, 11))
            out.append(("sparse", [sorted(rng.choice(FANOUT_WIDTH, 3, replace=False).tolist())
                                   for _ in range(n)]))
    return out


def fanout_solver(seed: int, size: str) -> Workload:
    """A chain of fan-out blocks: producer p(64) -> relu -> n consumers
    mix(64 -> 8) -> concat -> next producer. Only the consumers are masked;
    the seed permutes each block's channels before applying its template."""
    blocks = 12 if size == "full" else 3
    rng = np.random.default_rng(seed)
    wl = Workload("fanout-solver", batch=(2, 28, 28))
    x = wl.input("in", FANOUT_WIDTH, rng)
    for b, (_kind, sets) in enumerate(fanout_templates(blocks)):
        p = wl.mix(f"b{b:02d}.p", x, FANOUT_WIDTH, rng)
        r = wl.relu(f"b{b:02d}.r", p)
        relabel = rng.permutation(FANOUT_WIDTH)
        outs = [wl.mix(f"b{b:02d}.c{j:02d}", r, FANOUT_CONSUMER_OUT, rng,
                       keep=[int(relabel[ch]) for ch in kept])
                for j, kept in enumerate(sets)]
        x = wl.concat(f"b{b:02d}.cat", outs)
    wl.output("out", x)
    return wl


def wide_stream(seed: int, size: str) -> Workload:
    """One 256-channel residual stream: stem, then blocks of
    mix(256 -> 16) -> relu -> mix(16 -> 256) -> add, then a head.

    Every stream reader (the block inputs and the head) keeps 154 of 256
    columns by L2 magnitude: 31 consumers in one segment in the full size.
    """
    blocks = 30 if size == "full" else 4
    keep = 154
    rng = np.random.default_rng(seed)
    wl = Workload("wide-stream", batch=(2, 14, 14))
    x = wl.input("in", 256, rng)
    s = wl.mix("stem", x, 256, rng)
    for i in range(blocks):
        a = wl.mix(f"s{i:02d}.a", s, 16, rng, keep=keep)
        r = wl.relu(f"s{i:02d}.r", a)
        b = wl.mix(f"s{i:02d}.b", r, 256, rng, rms=0.25)
        s = wl.add(f"s{i:02d}.sum", [s, b])
    h = wl.mix("head", s, 16, rng, keep=keep)
    wl.output("out", h)
    return wl


BUILDERS = {"deep-chain": deep_chain, "fanout-solver": fanout_solver,
            "wide-stream": wide_stream}


def make_workload(name: str, seed: int, size: str = "full") -> Workload:
    return BUILDERS[name](seed, size)
