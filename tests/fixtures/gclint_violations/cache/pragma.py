"""Seeded pragma violation (GC001, never imported): the allow[] pragma
silences the GC202 below it but gives no reason."""

import random


def pick(entries):
    # gclint: allow[GC202]
    return entries[int(random.random() * len(entries))]
