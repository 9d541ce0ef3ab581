"""Shared fixtures: the canonical two-application example used throughout."""

from __future__ import annotations

import pytest

from treeboot import parse_release_graph

TWO_APP_GRAPH = """\
[conditions]
app1_rootsup * -> cond_app1_rootsup
generic_server [app1_server1] -> cond_app1_server1
generic_server [app1_server2] -> cond_app1_server2
generic_server [app1_server3] -> cond_app1_server3

[groups]
group_app1_app = cond_app1_server1, cond_app1_server2, cond_app1_server3, cond_app1_rootsup

[preconditions]
generic_server [app2_server1] <- group_app1_app
"""

CYCLE_GRAPH = """\
[conditions]
worker_a * -> cond_a
worker_b * -> cond_b

[preconditions]
worker_a * <- cond_b
worker_b * <- cond_a
"""


def chain_graph_text(n: int, *, closed: bool = False) -> str:
    """A graph where module m<i+1> waits on the condition m<i> sets; with
    ``closed``, m0 also waits on the last one, making an n-module ring."""
    lines = ["[conditions]"] + [f"m{i} * -> c{i}" for i in range(n)]
    lines += ["", "[preconditions]"] + [f"m{i + 1} * <- c{i}" for i in range(n - 1)]
    if closed:
        lines.append(f"m0 * <- c{n - 1}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def two_app_graph():
    return parse_release_graph(TWO_APP_GRAPH)


@pytest.fixture
def cycle_graph():
    return parse_release_graph(CYCLE_GRAPH)
