"""Record the analytic reference values the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the analytic means and Laplace values of the
verify workload's reports. Run it only when the benchmark's inputs change; the
values are the defining commit's and later changes are checked against them
within the stated tolerances.
"""

import env

env.pin()

import json  # noqa: E402

import workloads  # noqa: E402


def main():
    verify = workloads.Verify()
    state = verify.setup()
    reports = verify.run(state, 1, lambda i: None)
    blob = {
        "verify": {rep.quantity: [float(v) for v in rep.analytic] for _, rep in reports
                   if not rep.quantity.startswith("comparison")},
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(blob, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
