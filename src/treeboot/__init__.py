"""treeboot: supervision-tree runtime with dependency-gated concurrent startup.

Workers and supervisors declare named startup conditions and
preconditions in a dependency graph; a condition store blocks each start
until its preconditions hold; children tagged ``concurrent`` start
through wrapper supervisors that keep restart semantics intact while the
rest of the tree proceeds.  A benchmark harness measures sequential vs
concurrent startup on standard tree topologies.
"""

__version__ = "0.1.0"

from .clock import Clock, VirtualClock, WallClock
from .condsrv import ConditionStore, DeadlockReport, WaitReport
from .depgraph import (
    ConditionGroup,
    DependencyGraph,
    Diagnostic,
    ModuleKey,
    parse_release_graph,
    serialize_release_graph,
)
from .errors import (
    BootRefusedError,
    ClockStalledError,
    DeadlockError,
    GraphError,
    QuiescenceTimeout,
    ReleaseError,
    StartupError,
    TraceFormatError,
    TreebootError,
    TreeError,
)
from .suptree import (
    ChildSpec,
    CrashOutcome,
    InitModel,
    Node,
    Runtime,
    StartupReport,
    SupervisorFlags,
    Violation,
    await_quiescence,
    check_trace,
    inject_crash,
    parse_tree,
    run_worker_lifecycle,
    serialize_tree,
    start_supervisor,
    wrap_concurrent,
)
from .boot import (
    BootResult,
    Release,
    SystemRef,
    boot,
    boot_system,
    parse_release,
)
from .bench import (
    BenchConfig,
    BenchReport,
    DelayModel,
    ForkPlacement,
    TopologySpec,
    critical_path,
    emit_csv,
    gen_topology,
    place_forks,
    read_csv,
    run_benchmark,
)
from .tracing import TraceEvent, TraceSink, parse_trace
