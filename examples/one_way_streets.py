#!/usr/bin/env python3
"""Directed road networks: one-way streets and asymmetric congestion.

Section 2 of the paper notes the algorithms "can be extended to the
directed case"; this example exercises that extension.  A downtown grid
gets one-way streets and direction-dependent transit times; the
directed CH answers asymmetric distance queries (through the same
``ch_distance`` as the undirected index) and directed DCH
absorbs a congestion wave that only slows the inbound direction.

Run:  python examples/one_way_streets.py
"""

from __future__ import annotations

import random

from repro import DiRoadNetwork, ch_distance, road_network
from repro.directed.ch import directed_ch_indexing
from repro.ch.dch import dch_decrease, dch_increase
from repro.directed.dijkstra import directed_distance


def main() -> None:
    base = road_network(300, seed=17)
    rng = random.Random(2)
    city = DiRoadNetwork(base.n)
    one_way = 0
    for u, v, w in base.edges():
        roll = rng.random()
        if roll < 0.2:                       # one-way u -> v
            city.add_arc(u, v, w)
            one_way += 1
        elif roll < 0.4:                     # one-way v -> u
            city.add_arc(v, u, w)
            one_way += 1
        else:                                # two-way, maybe asymmetric
            city.add_arc(u, v, w)
            city.add_arc(v, u, w * rng.choice([1.0, 1.0, 1.5]))
    print(f"downtown: {city.n} intersections, {city.m} directed arcs "
          f"({one_way} one-way streets)")

    index = directed_ch_indexing(city)
    print(f"directed CH: {index.num_shortcuts} skeleton shortcuts, "
          "two weights each")

    s, t = 0, city.n - 1
    there = ch_distance(index, s, t)
    back = ch_distance(index, t, s)
    assert there == directed_distance(city, s, t)
    assert back == directed_distance(city, t, s)
    print(f"\nsd({s} -> {t}) = {there}")
    print(f"sd({t} -> {s}) = {back}"
          + ("   (asymmetric, as expected)" if there != back else ""))

    # Morning rush: inbound arcs toward low-numbered blocks slow 3x.
    inbound = [(u, v, w) for u, v, w in city.arcs() if v < u][:30]
    batch = [((u, v), w * 3.0) for u, v, w in inbound]
    changed = dch_increase(index, batch)
    for (u, v), w in batch:
        city.set_weight(u, v, w)
    print(f"\nmorning rush: {len(batch)} inbound arcs 3x slower "
          f"({len(changed)} directed shortcut weights updated)")

    there_rush = ch_distance(index, s, t)
    back_rush = ch_distance(index, t, s)
    assert there_rush == directed_distance(city, s, t)
    assert back_rush == directed_distance(city, t, s)
    print(f"sd({s} -> {t}) = {there_rush}   (was {there})")
    print(f"sd({t} -> {s}) = {back_rush}   (was {back})")

    # Evening: the wave recedes.
    dch_decrease(index, [((u, v), float(w)) for u, v, w in inbound])
    for u, v, w in inbound:
        city.set_weight(u, v, w)
    assert ch_distance(index, s, t) == there
    assert ch_distance(index, t, s) == back
    index.validate()
    print("\nevening: weights restored, index validated "
          "(both directions of every shortcut exact).")


if __name__ == "__main__":
    main()
