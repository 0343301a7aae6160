"""Run configuration, its file representation, and the named random sub-streams.

All randomness in a run flows from one root seed through named sub-streams
(network, workload-baseline, workload-kb), so changing how many draws one
stage makes cannot perturb another stage.
"""

from __future__ import annotations

import dataclasses
import math
import random
import string
from dataclasses import dataclass

# Super-peer domains carry distinct two-letter labels, so there are at most
# this many super-peers.
MAX_NSP = len(string.ascii_lowercase) ** 2


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class Config:
    seed: int = 42
    np: int = 300                  # number of peers
    nsp: int = 10                  # number of super-peers
    sp_expertise_size: int = 12    # couples generated per super-peer domain
    friends_per_sp: int = 3        # friends each super-peer selects
    dup_count: int = 2             # expertise elements duplicated per friend link
    min_peer_expertise: int = 4    # MIN: smallest peer expertise drawn
    n_components: int = 4          # components per query
    queries_per_peer: int = 5      # N: queries each peer generates per epoch
    eps_acc: float = 0.5           # acceptance threshold on capacity
    max_hops: int = 1              # global-search depth; -1 means unbounded
    tau_trust: int = 2             # trust threshold for domain-group formation
    min_leaf: int = 2              # decision-tree leaf size floor
    refresh_every: int = 0         # retrain indices every R routed queries; 0 = static
    c_hop: float = 10.0            # cost per overlay message
    c_map: float = 1.0             # cost per capacity evaluation
    c_tree: float = 0.1            # cost per tree node visited
    workload_mode: str = "replay"  # evaluation workload: replay | fresh

    def validate(self) -> None:
        if self.nsp < 1:
            raise ConfigError("nsp", "at least one super-peer is required")
        if self.nsp > MAX_NSP:
            raise ConfigError("nsp", f"at most {MAX_NSP} super-peers (distinct two-letter "
                                     f"domain labels), got {self.nsp}")
        if self.np < self.nsp:
            raise ConfigError("np", f"need np >= nsp, got np={self.np} nsp={self.nsp}")
        if self.sp_expertise_size < 1:
            raise ConfigError("sp_expertise_size", "must be >= 1")
        if not 0 <= self.friends_per_sp < self.nsp:
            raise ConfigError("friends_per_sp", f"must lie in [0, nsp), got {self.friends_per_sp}")
        if self.dup_count < 1:
            raise ConfigError("dup_count", "must be >= 1 so friend links carry a mapping")
        if self.dup_count > self.sp_expertise_size:
            raise ConfigError("dup_count", "cannot exceed sp_expertise_size")
        if not 1 <= self.min_peer_expertise <= self.sp_expertise_size:
            raise ConfigError("min_peer_expertise", "must lie in [1, sp_expertise_size]")
        if self.n_components < 1:
            raise ConfigError("n_components", "queries need at least one component")
        if self.queries_per_peer < 0:
            raise ConfigError("queries_per_peer", "must be >= 0")
        if not 0.0 <= self.eps_acc <= 1.0:
            raise ConfigError("eps_acc", f"must lie in [0, 1], got {self.eps_acc}")
        if self.max_hops < -1:
            raise ConfigError("max_hops", "must be >= 0, or -1 for unbounded")
        if self.tau_trust < 1:
            raise ConfigError("tau_trust", "must be >= 1")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf", "must be >= 1")
        if self.refresh_every < 0:
            raise ConfigError("refresh_every", "must be >= 0 (0 disables refresh)")
        for name in ("c_hop", "c_map", "c_tree"):
            cost = getattr(self, name)
            if not math.isfinite(cost) or cost < 0:  # 0 * inf is nan in every response time
                raise ConfigError(name, f"costs must be finite and >= 0, got {cost}")
        if self.workload_mode not in ("fresh", "replay"):
            raise ConfigError("workload_mode", f"must be 'fresh' or 'replay', got {self.workload_mode!r}")

    def replace(self, **changes) -> "Config":
        return dataclasses.replace(self, **changes)

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Config":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        lines: dict[str, int] = {}  # key -> the line that set it
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("config-file", f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ConfigError(key, f"line {lineno}: unknown configuration key")
            if lines.setdefault(key, lineno) != lineno:
                raise ConfigError(key, f"line {lineno}: repeats the key of line {lines[key]}")
            values[key] = _coerce(fields[key].type, value.strip(), key)
        return cls(**values)


# A `Config` field's type -> the parser of its text, in a config file and on
# the command line alike, and what an error says the text should have been.
FIELD_PARSERS = {"int": (int, "an integer"), "float": (float, "a number"), "str": (str, "text")}


def _coerce(field_type: str, text: str, key: str):
    parse, expected = FIELD_PARSERS[field_type]
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(key, f"expected {expected}, got {text!r}") from None


def substream(seed: int, name: str) -> random.Random:
    """Independent deterministic generator for one pipeline stage.

    String seeding hashes (seed, name), so streams never share state and are
    stable across runs on the same interpreter.
    """
    return random.Random(f"{seed}/{name}")


def derive_seed(seed: int, index: int) -> int:
    """Per-run seed for sweep point `index`: seed + 100003 * (index + 1)."""
    return (seed + 100003 * (index + 1)) % 2**63
