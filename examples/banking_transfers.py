"""Multi-bank funds transfers — the paper's motivating workload shape.

A company holds accounts at three banks, each a pre-existing DBMS with
its own concurrency control.  Global transactions transfer funds between
banks; meanwhile each bank's *local* customers run transactions the GTM
never sees — the indirect conflicts of the paper's §1.

The example runs the full discrete-event simulator, checks global
serializability from the local histories, and verifies the end-to-end
money-conservation invariant.

Run:  python examples/banking_transfers.py
"""

import random

from repro.core import GlobalProgram, make_scheme
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import MDBSSimulator, SimulationConfig, assert_verified
from repro.workloads.generator import LocalProgram

BANKS = {
    "chase": "strict-2pl",
    "hsbc": "conservative-2pl",
    "dbs": "to",
}
ACCOUNTS_PER_BANK = 4
INITIAL_BALANCE = 1000


def build_sites():
    sites = {}
    for bank, protocol in BANKS.items():
        initial = {
            f"acct{i}": INITIAL_BALANCE for i in range(ACCOUNTS_PER_BANK)
        }
        sites[bank] = LocalDBMS(bank, make_protocol(protocol), initial)
    return sites


def main(seed: int = 2026) -> None:
    rng = random.Random(seed)
    sites = build_sites()
    sim = MDBSSimulator(
        sites, make_scheme("scheme2"), SimulationConfig()
    )

    # global inter-bank transfers: read+write one account at each bank
    banks = list(BANKS)
    for index in range(15):
        src, dst = rng.sample(banks, 2)
        src_acct = f"acct{rng.randrange(ACCOUNTS_PER_BANK)}"
        dst_acct = f"acct{rng.randrange(ACCOUNTS_PER_BANK)}"
        sim.submit_global(
            GlobalProgram.build(
                f"G{index}",
                [
                    (src, "r", src_acct),
                    (src, "w", src_acct),
                    (dst, "r", dst_acct),
                    (dst, "w", dst_acct),
                ],
            ),
            at=index * 3.0,
        )

    # local customers at each bank, invisible to the GTM
    for index in range(30):
        bank = rng.choice(banks)
        acct = f"acct{rng.randrange(ACCOUNTS_PER_BANK)}"
        sim.submit_local(
            LocalProgram(
                f"L{index}", bank, (("r", acct), ("w", acct))
            ),
            at=index * 1.5,
        )

    report = sim.run()

    print(f"simulated time units : {report.duration:.0f}")
    print(f"global committed     : {report.committed_global}/15")
    print(f"global aborts/retries: {report.global_aborts}")
    print(f"local committed      : {report.committed_local}")
    print(f"local aborts         : {report.local_aborts}")
    print(f"mean response time   : {report.mean_response_time:.1f}")
    print(f"GTM2 scheduling steps: {report.scheme_steps}")

    verification = assert_verified(sim.global_schedule(), sim.ser_schedule)
    print("globally serializable:", verification.ok)
    print("witness order        :", " < ".join(verification.witness[:6]), "...")


if __name__ == "__main__":
    main()
