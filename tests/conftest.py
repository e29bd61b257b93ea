"""Fixtures shared across test modules."""

import pytest

from fsub import subtyper


@pytest.fixture()
def diagnosed(monkeypatch):
    """Every node the checker examines, one entry per `_diagnose_node` call."""
    nodes = []
    diagnose_node = subtyper._diagnose_node

    def counting(node, implicit):
        nodes.append(node)
        return diagnose_node(node, implicit)

    monkeypatch.setattr(subtyper, "_diagnose_node", counting)
    return nodes
