"""The named system versions evaluated in the paper.

Figure/section mapping:

================  ==============================================================
INDEP             independent servers, round-robin DNS (Fig 1a)
FE-X-INDEP        INDEP + front-end + extra node (Fig 1a)
COOP              base cooperative PRESS, heartbeat ring only (Fig 1a, 4, 6, 7)
FE-X              COOP + front-end + extra node (Fig 6, 7)
MEM               FE-X + membership service (Fig 7)
QMON              FE-X + queue monitoring (Fig 7)
MQ                FE-X + membership + queue monitoring (Fig 7)
FME               MQ + fault model enforcement (Fig 7, 8, 9)
FME-NOFE          FME without front-end/extra node (Sec 6.1: ~3x worse)
S-FME             FME + global cooperation-set monitoring (Fig 8)
C-MON             S-FME + front-end TCP connection monitoring (Fig 8)
X-SW              C-MON + backup switch        (catalog transform; Fig 8)
X-SW-RAID         X-SW + RAID on every node    (catalog transform; Fig 8)
================  ==============================================================

X-SW / RAID change no runtime behaviour — they improve hardware MTTFs —
so they reuse the C-MON runtime and apply
:meth:`repro.faults.faultload.FaultCatalog` transforms in the model phase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict

from repro.faults.faultload import FaultCatalog, table1_catalog


@dataclass(frozen=True)
class VersionSpec:
    """Which components a deployment includes."""

    name: str
    cooperative: bool = True
    n_nodes: int = 4
    extra_node: bool = False  # +1 back-end node (the paper's X)
    frontend: bool = False  # LVS front-end + Mon
    fe_conn_monitoring: bool = False  # C-MON probes instead of pings
    membership: bool = False  # external membership service
    queue_monitoring: bool = False  # self-monitoring send queues
    fme: bool = False  # per-node FME daemons
    sfme: bool = False  # global coop-set monitor at the FE
    #: catalog transforms applied before the availability model runs
    catalog_transforms: tuple = ()

    @property
    def server_count(self) -> int:
        return self.n_nodes + (1 if self.extra_node else 0)

    @property
    def ring_detection(self) -> bool:
        # The membership service replaces PRESS's own heartbeat ring.
        return not self.membership

    def with_nodes(self, n_nodes: int) -> "VersionSpec":
        from dataclasses import replace

        return replace(self, name=f"{self.name}-{n_nodes}", n_nodes=n_nodes)

    def transform_catalog(self, catalog: FaultCatalog) -> FaultCatalog:
        for transform in self.catalog_transforms:
            catalog = getattr(catalog, transform)()
        return catalog

    def catalog(self) -> FaultCatalog:
        """This version's Table 1 fault catalog, transforms applied."""
        return self.transform_catalog(table1_catalog(
            n_nodes=self.server_count, disks_per_node=2,
            with_frontend=self.frontend))


def _mk(name: str, **kw) -> VersionSpec:
    return VersionSpec(name=name, **kw)


VERSIONS: Dict[str, VersionSpec] = {
    spec.name: spec
    for spec in [
        _mk("INDEP", cooperative=False),
        _mk("FE-X-INDEP", cooperative=False, frontend=True, extra_node=True),
        _mk("COOP"),
        _mk("FE-X", frontend=True, extra_node=True),
        _mk("MEM", frontend=True, extra_node=True, membership=True),
        _mk("QMON", frontend=True, extra_node=True, queue_monitoring=True),
        _mk("MQ", frontend=True, extra_node=True, membership=True, queue_monitoring=True),
        _mk("FME", frontend=True, extra_node=True, membership=True,
            queue_monitoring=True, fme=True),
        _mk("FME-NOFE", membership=True, queue_monitoring=True, fme=True),
        _mk("S-FME", frontend=True, extra_node=True, membership=True,
            queue_monitoring=True, fme=True, sfme=True),
        _mk("C-MON", frontend=True, extra_node=True, membership=True,
            queue_monitoring=True, fme=True, sfme=True, fe_conn_monitoring=True),
        _mk("X-SW", frontend=True, extra_node=True, membership=True,
            queue_monitoring=True, fme=True, sfme=True, fe_conn_monitoring=True,
            catalog_transforms=("with_backup_switch",)),
        _mk("X-SW-RAID", frontend=True, extra_node=True, membership=True,
            queue_monitoring=True, fme=True, sfme=True, fe_conn_monitoring=True,
            catalog_transforms=("with_backup_switch", "with_raid")),
    ]
}


#: Convenience names accepted by :func:`version` (resolution is also
#: case-insensitive).  "pressha" is the paper's fully-hardened PRESS-HA
#: configuration — the FME version.
ALIASES: Dict[str, str] = {
    "PRESSHA": "FME",
    "PRESS-HA": "FME",
    "BASE": "COOP",
    "PRESS": "COOP",
}


def version(name: str) -> VersionSpec:
    """The spec a version name names (case-insensitive, alias-aware).

    ``NAME-N`` resolves to ``version("NAME").with_nodes(N)``, the name
    :meth:`VersionSpec.with_nodes` gives its result, so every spec the
    repo builds can be looked up again by its name (a campaign cell
    carries only that name): ``repro quantify FME-8`` runs FME on 8
    back-end nodes.  No registered name or alias ends in ``-digits``.
    """
    canonical = name.upper()
    canonical = ALIASES.get(canonical, canonical)
    if canonical in VERSIONS:
        return VERSIONS[canonical]
    sized = re.fullmatch(r"(.+)-([1-9][0-9]*)", canonical)
    if sized is None:
        raise KeyError(f"unknown version {name!r}; known: {sorted(VERSIONS)}")
    return version(sized.group(1)).with_nodes(int(sized.group(2)))
