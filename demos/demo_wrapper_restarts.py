"""Wrapper supervisors preserve restart semantics across concurrent starts.

Builds the canonical shape: a supervisor with one concurrent child (which
ends up behind a wrapper) and one sequential child.  Then crashes the
concurrent child and shows the escalation path: the wrapper never
restarts; the slot's parent decides, so the wrapper terminates and the
*original* parent restarts the slot.  A temporary concurrent child takes
the same path, and its parent removes the slot instead.

Run:
    python demos/demo_wrapper_restarts.py
"""

from treeboot import (
    ChildSpec,
    ConditionStore,
    DependencyGraph,
    InitModel,
    Runtime,
    SupervisorFlags,
    VirtualClock,
)


def show_tree(node, indent="  "):
    marker = {"supervisor": "[]", "wrapper": "{}", "worker": "()"}[node.kind]
    print(f"{indent}{marker} {node.path} <{node.state}>")
    for child in node.children:
        show_tree(child, indent + "  ")


def main():
    store = ConditionStore(DependencyGraph(), clock=VirtualClock())
    runtime = Runtime(store)

    root = runtime.start_supervisor(SupervisorFlags(max_restarts=1, max_seconds=60), (
        ChildSpec(id="w1", module="m1", init=InitModel.sleep(30),
                  start_mode="concurrent"),
        ChildSpec(id="w2", module="m2", init=InitModel.sleep(10)),
    ), path="s")
    runtime.await_quiescence()

    print("tree after startup (note the wrapper between s and w1):")
    show_tree(root)

    print("\ninjecting a crash into the concurrently-started child ...")
    outcome = runtime.inject_crash(root.find("s/w1"))
    for supervisor, decision in outcome.hops:
        print(f"  {supervisor}: {decision}")
    runtime.await_quiescence()

    print("\ntree after recovery:")
    show_tree(root)

    print("\nsecond crash exhausts the parent's budget:")
    outcome = runtime.inject_crash(root.find("s/w1"))
    for supervisor, decision in outcome.hops:
        print(f"  {supervisor}: {decision}")
    print(f"root state: {root.state}")

    print("\na crash of a temporary concurrent child: its parent removes the slot")
    runtime = Runtime(ConditionStore(DependencyGraph(), clock=VirtualClock()))
    root = runtime.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="t", module="mt", restart="temporary", start_mode="concurrent"),
    ), path="s")
    runtime.await_quiescence()
    outcome = runtime.inject_crash(root.find("s/t"))
    for supervisor, decision in outcome.hops:
        print(f"  {supervisor}: {decision}")
    show_tree(root)


if __name__ == "__main__":
    main()
