"""FPGA parts database — the data behind the paper's Table 1.

Table 1 of the paper compares logic-cell counts for the smallest and largest
parts of the previous (Virtex-7) and current (Virtex UltraScale+) Xilinx
families to motivate multi-accelerator FPGAs.  We encode those four parts
exactly as printed, plus the board-level context (I/O mix) that Section 2
argues makes modern development hard.

Counts for the Table-1 parts are transcribed from the paper; the remaining
entries carry representative public datasheet figures and exist to give the
experiments a spread of device sizes (they are not part of Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError

__all__ = ["FpgaPart", "Board", "PARTS", "BOARDS", "table1_rows", "part", "board"]


@dataclass(frozen=True)
class FpgaPart:
    """One FPGA part.

    ``logic_cells`` is the marketing "logic cell" count used in Table 1;
    ``bram_kb`` and ``dsp_slices`` give the other resource axes the
    monitor-overhead experiment (D4) budgets against.
    """

    name: str
    family: str
    year: int
    logic_cells: int
    bram_kb: int
    dsp_slices: int
    hardened_noc: bool = False
    in_table1: bool = False

    def __post_init__(self) -> None:
        if self.logic_cells <= 0:
            raise ConfigError(f"{self.name}: logic cells must be positive")


@dataclass(frozen=True)
class Board:
    """An FPGA board: a part plus its I/O devices.

    ``ethernet_gbps`` lists the line rates of the MACs on the board; the
    paper's portability complaint is precisely that the 10G and 100G IP
    cores have different interfaces and reset processes — our
    :mod:`repro.net.ethernet` models that difference and the Apiary network
    service hides it.
    """

    name: str
    part_name: str
    ethernet_gbps: List[int]
    dram_gb: int
    dram_kind: str = "DDR4"
    pcie_gen: int = 3
    has_cxl: bool = False
    has_nvme: bool = False

    @property
    def part(self) -> FpgaPart:
        return part(self.part_name)


# -- Table 1 parts (transcribed verbatim from the paper) ----------------------

_PART_LIST: List[FpgaPart] = [
    # Family, year released, part number, logic cells — exactly as in Table 1.
    FpgaPart("XC7V585T", "Virtex 7", 2010, 582_720, bram_kb=28_620,
             dsp_slices=1_260, in_table1=True),
    FpgaPart("XC7VH870T", "Virtex 7", 2010, 876_160, bram_kb=50_760,
             dsp_slices=2_520, in_table1=True),
    FpgaPart("VU3P", "Virtex Ultrascale+", 2016, 862_000, bram_kb=25_344,
             dsp_slices=2_280, in_table1=True),
    FpgaPart("VU29P", "Virtex Ultrascale+", 2018, 3_780_000, bram_kb=88_128,
             dsp_slices=9_216, in_table1=True),
    # Supporting parts for experiments (representative datasheet figures).
    FpgaPart("VU9P", "Virtex Ultrascale+", 2016, 2_586_000, bram_kb=75_900,
             dsp_slices=6_840),
    FpgaPart("XCVC1902", "Versal AI Core", 2019, 1_968_000, bram_kb=34_000,
             dsp_slices=1_968, hardened_noc=True),
    FpgaPart("XCVP1202", "Versal Premium", 2021, 1_848_000, bram_kb=55_000,
             dsp_slices=1_904, hardened_noc=True),
    FpgaPart("AGM039", "Agilex 7 M-Series", 2022, 3_850_000, bram_kb=36_000,
             dsp_slices=12_300, hardened_noc=True),
]

PARTS: Dict[str, FpgaPart] = {p.name: p for p in _PART_LIST}

_BOARD_LIST: List[Board] = [
    Board("VC707", "XC7V585T", ethernet_gbps=[10], dram_gb=1,
          dram_kind="DDR3", pcie_gen=2),
    Board("Alveo-U250-like", "VU9P", ethernet_gbps=[100, 100], dram_gb=64,
          dram_kind="DDR4", pcie_gen=3),
    Board("Alveo-U55C-like", "VU29P", ethernet_gbps=[100, 100], dram_gb=16,
          dram_kind="HBM2", pcie_gen=4),
    Board("Versal-VCK5000-like", "XCVC1902", ethernet_gbps=[100, 100],
          dram_gb=16, dram_kind="DDR4", pcie_gen=4),
    Board("Alveo-V80-like", "XCVP1202", ethernet_gbps=[100, 100, 100, 100],
          dram_gb=32, dram_kind="HBM2e", pcie_gen=5, has_cxl=True,
          has_nvme=True),
]

BOARDS: Dict[str, Board] = {b.name: b for b in _BOARD_LIST}


def part(name: str) -> FpgaPart:
    """Look up a part by exact name."""
    if name not in PARTS:
        raise ConfigError(f"unknown FPGA part {name!r}; known: {sorted(PARTS)}")
    return PARTS[name]


def board(name: str) -> Board:
    """Look up a board by exact name."""
    if name not in BOARDS:
        raise ConfigError(f"unknown board {name!r}; known: {sorted(BOARDS)}")
    return BOARDS[name]


def table1_rows() -> List[Tuple[str, int, str, int]]:
    """Table 1 exactly as printed: (family, year, part number, logic cells)."""
    rows = [p for p in _PART_LIST if p.in_table1]
    return [(p.family, p.year, p.name, p.logic_cells) for p in rows]


def table1_scaling() -> Dict[str, float]:
    """The generational ratios the paper derives from Table 1.

    "Comparing the smallest parts, the number of logic cells has increased
    by about 50%, while the largest parts have scaled up by 3x" — we compute
    the same ratios from the database so the bench can assert them.
    """
    smallest_v7 = part("XC7V585T").logic_cells
    largest_v7 = part("XC7VH870T").logic_cells
    smallest_vup = part("VU3P").logic_cells
    largest_vup = part("VU29P").logic_cells
    return {
        "smallest_ratio": smallest_vup / smallest_v7,
        "largest_ratio": largest_vup / largest_v7,
    }
