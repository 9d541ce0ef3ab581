"""Two applications with a cross-application startup dependency.

app1 has a root supervisor and three servers that start concurrently;
app2 has one server that must observe *all* of app1's conditions (via a
condition group) before it may run its init.  Because every server sits
behind a wrapper, app1's root acks immediately and app2 starts while
app1's lanes are still initializing — only the gated server waits.

Run:
    python demos/demo_two_apps.py
"""

from pathlib import Path

from treeboot import VirtualClock, boot, check_trace, parse_release, parse_release_graph

DATA = Path(__file__).parent / "data"


def main():
    release = parse_release((DATA / "two_apps.rel").read_text(), base_dir=DATA)
    graph = parse_release_graph((DATA / "two_apps.rgraph").read_text())

    print("booting release", release.name, "with a virtual clock")
    result = boot(release, base_dir=DATA, clock=VirtualClock())

    for app, duration in result.per_app_ms:
        print(f"  app {app}: root acked after {duration:.1f} virtual ms")
    report = result.report
    print(f"  quiescence after {report.duration_ms:.1f} virtual ms "
          f"({report.node_count} nodes, {report.wrapper_count} wrappers)")

    print("\nevent trace:")
    for event in result.system.trace.events:
        print(f"  {event.ts:7.1f}  {event.kind:<14} {event.node}")

    violations = check_trace(result.system.trace.events, graph, release.applications)
    print("\ntrace check:", "clean" if not violations else violations)


if __name__ == "__main__":
    main()
