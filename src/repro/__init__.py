"""repro — dynamic distance oracles for road networks.

A from-scratch reproduction of *"Relative Subboundedness of Contraction
Hierarchy and Hierarchical 2-Hop Index in Dynamic Road Networks"*
(Zhang & Yu, SIGMOD 2022): contraction hierarchies (CH), hierarchical
2-hop indexes (H2H), the DCH / IncH2H incremental maintenance
algorithms with their relative-subboundedness guarantees, the UE and
DTDHL baselines, and a full experiment harness.

Quickstart
----------
>>> from repro import DynamicH2H, road_network
>>> oracle = DynamicH2H(road_network(200, seed=42))
>>> d_before = oracle.distance(0, 150)
>>> report = oracle.apply([((0, 1), oracle.graph.weight(0, 1) * 2.0)])
>>> oracle.distance(0, 150) >= d_before
True

Main entry points
-----------------
* :class:`repro.core.DynamicCH` / :class:`repro.core.DynamicH2H` —
  dynamic oracles (build, query, update).
* :mod:`repro.graph` — the road-network type, generators, DIMACS IO and
  the synthetic traffic model.
* :mod:`repro.experiments` — regenerates every table and figure of the
  paper's evaluation (Section 6).
"""

from repro.baselines import bidirectional_distance, dijkstra, distance, shortest_path
from repro.ch import ch_distance, ch_indexing, ch_path
from repro.core import (
    DijkstraOracle,
    DistanceOracle,
    DynamicCH,
    DynamicH2H,
    UpdateReport,
)
from repro.errors import (
    DisconnectedGraphError,
    GraphError,
    IntegrityError,
    OrderingError,
    QueryError,
    RecoveryError,
    ReproError,
    UpdateError,
)
from repro.graph import (
    RoadNetwork,
    TrafficModel,
    grid_network,
    random_connected_network,
    read_dimacs,
    road_network,
    write_dimacs,
)
from repro.directed import DiRoadNetwork, directed_ch_indexing
from repro.h2h import h2h_distance, h2h_indexing
from repro.knn import POIIndex
from repro.order import Ordering, minimum_degree_ordering
from repro.persist import load_index, load_oracle, save_index
from repro.reliability import (
    FaultInjector,
    InjectedFault,
    ReliableStore,
    ResilientOracle,
    WriteAheadLog,
    verify_index,
)

__version__ = "1.0.0"

__all__ = [
    "DiRoadNetwork",
    "DijkstraOracle",
    "DisconnectedGraphError",
    "DistanceOracle",
    "DynamicCH",
    "DynamicH2H",
    "FaultInjector",
    "GraphError",
    "InjectedFault",
    "IntegrityError",
    "POIIndex",
    "Ordering",
    "OrderingError",
    "QueryError",
    "RecoveryError",
    "ReliableStore",
    "ReproError",
    "ResilientOracle",
    "RoadNetwork",
    "TrafficModel",
    "UpdateError",
    "UpdateReport",
    "WriteAheadLog",
    "bidirectional_distance",
    "ch_distance",
    "ch_indexing",
    "ch_path",
    "dijkstra",
    "directed_ch_indexing",
    "distance",
    "grid_network",
    "h2h_distance",
    "h2h_indexing",
    "load_index",
    "load_oracle",
    "minimum_degree_ordering",
    "random_connected_network",
    "read_dimacs",
    "road_network",
    "save_index",
    "shortest_path",
    "verify_index",
    "write_dimacs",
]
