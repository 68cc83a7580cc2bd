"""Bitstream model and design-rule checking.

Apiary tiles are "dynamically instantiated regions" loaded with accelerator
bitstreams (Section 4.1).  Section 3.1 notes that power-virus attacks "are
typically mitigated by the vendor FPGA build tools themselves using design
rule checking during bitstream creation or bitstream analysis after the
build process" — so the OS-visible piece we model is exactly that screen:
a :class:`Bitstream` declares the primitives it instantiates, and
:class:`DesignRuleChecker` rejects the ones a multitenant deployment must
not load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import BitstreamRejected, ConfigError
from repro.hw.resources import ResourceVector

__all__ = ["Bitstream", "DesignRuleChecker", "DrcViolation", "FORBIDDEN_PRIMITIVES"]

#: Primitive classes associated with electrical-level attacks in the
#: literature the paper cites: combinational loops (ring oscillators used
#: both as power viruses and as voltage sensors) and explicit glitch
#: amplifiers.
FORBIDDEN_PRIMITIVES: FrozenSet[str] = frozenset(
    {
        "ring_oscillator",
        "combinational_loop",
        "glitch_amplifier",
        "tdc_sensor",  # time-to-digital converters used for side channels [16]
    }
)

#: Benign primitive classes a normal accelerator declares.
KNOWN_PRIMITIVES: FrozenSet[str] = FORBIDDEN_PRIMITIVES | frozenset(
    {
        "lut_logic",
        "bram",
        "dsp",
        "shift_register",
        "fifo",
        "uram",
    }
)


@dataclass(frozen=True)
class Bitstream:
    """A (modelled) partial bitstream for one tile slot.

    Attributes
    ----------
    name: human-readable accelerator name.
    cost: fabric resources the design consumes when loaded.
    primitives: histogram of primitive classes the netlist instantiates.
    max_toggle_rate: declared worst-case switching activity (0..1) — the
        input to the power-budget rule.
    signed_by: optional build-chain identity for provenance checks.
    family: the *design* identity, shared by every instance built from the
        same netlist (e.g. all replicas of one service class).  The compile
        pipeline content-addresses artifacts by family — two bitstreams
        with the same family/cost/primitives are the same synthesized
        design and share one cached artifact, whatever their instance
        ``name`` says.  ``None`` falls back to ``name`` (a one-off design).
    """

    name: str
    cost: ResourceVector
    primitives: Tuple[Tuple[str, int], ...] = ()
    max_toggle_rate: float = 0.25
    signed_by: Optional[str] = None
    family: Optional[str] = None

    @property
    def design_family(self) -> str:
        """The content-addressing identity (``family``, else ``name``)."""
        return self.family if self.family is not None else self.name

    @staticmethod
    def build(
        name: str,
        cost: ResourceVector,
        primitives: Optional[Dict[str, int]] = None,
        max_toggle_rate: float = 0.25,
        signed_by: Optional[str] = None,
        family: Optional[str] = None,
    ) -> "Bitstream":
        """Validating constructor (dataclass stays frozen/hashable)."""
        prims = primitives or {}
        for kind, count in prims.items():
            if kind not in KNOWN_PRIMITIVES:
                raise ConfigError(f"unknown primitive class {kind!r}")
            if count < 0:
                raise ConfigError(f"negative primitive count for {kind!r}")
        if not 0.0 <= max_toggle_rate <= 1.0:
            raise ConfigError(f"toggle rate must be in [0,1], got {max_toggle_rate}")
        return Bitstream(
            name=name,
            cost=cost,
            primitives=tuple(sorted(prims.items())),
            max_toggle_rate=max_toggle_rate,
            signed_by=signed_by,
            family=family,
        )


@dataclass(frozen=True)
class DrcViolation:
    rule: str
    detail: str


class DesignRuleChecker:
    """The load-time screen the management plane runs on every bitstream.

    Parameters
    ----------
    power_budget_toggle: maximum declared toggle rate admitted; designs
        over it are power-virus suspects.
    require_signature: multitenant deployments can insist bitstreams come
        from a trusted build chain (the vendor-tool mitigation of §3.1).
    trusted_signers: accepted build-chain identities.
    """

    def __init__(
        self,
        power_budget_toggle: float = 0.6,
        require_signature: bool = False,
        trusted_signers: Optional[Set[str]] = None,
    ):
        if not 0.0 < power_budget_toggle <= 1.0:
            raise ConfigError("power budget toggle must be in (0,1]")
        self.power_budget_toggle = power_budget_toggle
        self.require_signature = require_signature
        self.trusted_signers = trusted_signers or set()
        self.checked = 0
        self.rejected = 0

    def violations(self, bitstream: Bitstream) -> List[DrcViolation]:
        """All rule violations (empty list = clean)."""
        found: List[DrcViolation] = []
        for kind, count in bitstream.primitives:
            if kind in FORBIDDEN_PRIMITIVES and count > 0:
                found.append(
                    DrcViolation(
                        rule="forbidden-primitive",
                        detail=f"{count}x {kind} in {bitstream.name!r}",
                    )
                )
        if bitstream.max_toggle_rate > self.power_budget_toggle:
            found.append(
                DrcViolation(
                    rule="power-budget",
                    detail=(
                        f"toggle rate {bitstream.max_toggle_rate:.2f} exceeds "
                        f"budget {self.power_budget_toggle:.2f}"
                    ),
                )
            )
        if self.require_signature:
            if bitstream.signed_by is None:
                found.append(
                    DrcViolation(rule="unsigned", detail="bitstream not signed")
                )
            elif bitstream.signed_by not in self.trusted_signers:
                found.append(
                    DrcViolation(
                        rule="untrusted-signer",
                        detail=f"signer {bitstream.signed_by!r} not trusted",
                    )
                )
        return found

    def check(self, bitstream: Bitstream) -> None:
        """Raise :class:`BitstreamRejected` on the first violation."""
        self.checked += 1
        found = self.violations(bitstream)
        if found:
            self.rejected += 1
            summary = "; ".join(f"{v.rule}: {v.detail}" for v in found)
            raise BitstreamRejected(f"{bitstream.name!r} rejected: {summary}")
