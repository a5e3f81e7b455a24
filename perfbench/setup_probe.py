"""Set-up probe, run in a fresh interpreter: ``python3 setup_probe.py GRAPH [CENTERS]``.

It imports triprof, loads GRAPH with ``load_edge_list`` and prints ``loaded``;
the parent stops the set-up clock when that line arrives. With CENTERS, a file
of center labels one a line taken from the CLI's ego table, it then (untimed)
recomputes those centers with ``ego_serial`` and prints them as JSON rows
[label, f0..f3], which the parent compares against the table.
"""

import sys


def main() -> int:
    import triprof

    g = triprof.load_edge_list(sys.argv[1])
    sys.stdout.write("loaded\n")
    sys.stdout.flush()
    if len(sys.argv) > 2:
        import json

        with open(sys.argv[2]) as fh:
            centers = [g.id_of_label(label) for label in fh.read().split()]
        profiles = triprof.ego_serial(g, centers, triprof.Engine(1))
        rows = [[g.label_of(v)] + list(p.as_tuple()) for v, p in profiles.items()]
        sys.stdout.write(json.dumps(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
