"""Carter's weighted Dynkin diagram rows, as literal oracles for the
diagrams ``orbits`` computes (R. W. Carter, Finite Groups of Lie Type,
1985, pp. 174-175; cited as "D" and "F4-Levi" in
``wdsmooth.orbits.PROVENANCE``). Labels are in Bourbaki order.
"""

#: distinguished orbits of so(2n), keyed by rank: partition -> labels
D_ROWS = {
    4: {(5, 3): (2, 0, 2, 2), (7, 1): (2, 2, 2, 2)},
    5: {(7, 3): (2, 2, 0, 2, 2), (9, 1): (2, 2, 2, 2, 2)},
    6: {(7, 5): (2, 0, 2, 0, 2, 2), (9, 3): (2, 2, 2, 0, 2, 2),
        (11, 1): (2, 2, 2, 2, 2, 2)},
    7: {(9, 5): (2, 2, 0, 2, 0, 2, 2), (11, 3): (2, 2, 2, 2, 0, 2, 2),
        (13, 1): (2, 2, 2, 2, 2, 2, 2)},
}

#: distinguished orbits of the proper Levi types of F4 that are not type
#: A: (orbit name, factor type name, partition, labels)
F4_LEVI_ROWS = (
    ("C2", "C2", (4,), (2, 2)),
    ("C3", "C3", (6,), (2, 2, 2)),
    ("C3(a1)", "C3", (4, 2), (2, 0, 2)),
    ("B3", "B3", (7,), (2, 2, 2)),
)
