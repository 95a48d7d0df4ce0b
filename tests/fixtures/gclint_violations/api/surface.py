"""Seeded API-surface violation: a phantom export (GC501)."""

__all__ = ["build_service", "ServiceBuilder"]


def build_service(store, matcher):
    return (store, matcher)
