"""Record the reference exit code and report SHA-256 of every call any
seed can produce, on the current code, into ``refs.json``.

    python3 perfbench/record_refs.py

The committed file was recorded on the seed code. Re-record only when a
workload's inputs change, or when a change to the program's output is
intended; say which in the change that does it.
"""

import hashlib
import json
import sys

from run import REFS, call_key, import_program, run_call
from workloads import WORKLOADS, report_of


def main() -> int:
    cli = import_program()
    calls: dict[str, dict[str, list]] = {}
    for workload in WORKLOADS.values():
        refs = calls[workload.name] = {}
        items: dict[str, int] = {}
        work = set()
        for choice in workload.choices:
            session = workload.build(choice)
            for argv in session:
                key = call_key(argv)
                if key not in refs:
                    code, stdout, _ = run_call(cli, argv)
                    refs[key] = [code, hashlib.sha256(stdout.encode()).hexdigest()]
                    items[key] = workload.items(argv, report_of(stdout))
            work.add((len(session), sum(items[call_key(argv)] for argv in session)))
        # every seed must ask for the same amount of work
        if len(work) != 1:
            raise SystemExit("%s: sessions differ in size: %s" % (workload.name, sorted(work)))
        print("%s: %d references, %d calls and %d items per session"
              % ((workload.name, len(refs)) + work.pop()), file=sys.stderr)
    REFS.write_text(json.dumps({"calls": calls}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
