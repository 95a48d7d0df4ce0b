"""Seeded recursion (GC204, never imported): a search that calls itself
once per pattern vertex, so a deep enough pattern overflows the
interpreter's stack instead of being answered."""


def extend(steps, depth=0):
    # GC204: one frame per depth; depth 1 000 raises RecursionError.
    if depth == len(steps):
        return True
    return extend(steps, depth + 1)
