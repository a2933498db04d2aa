"""E2 (§1): one ontological query replaces a fleet of low-level queries.

The paper: a single diagnostic task requires "a fleet with hundreds of
queries ... semantically the same but syntactically different", and
authoring that fleet eats ~80% of diagnostic time.  OPTIQUE's user
writes ONE STARQL query; the system generates the fleet automatically.

This bench measures, for the 20-task catalog:

* how many low-level SQL blocks each STARQL query unfolds to — with the
  naive unfolding (no redundancy elimination, the fleet a human would
  have to hand-maintain) and the optimised one;
* the text-size ratio between the STARQL program and its SQL fleet.

A paper reproduction, not a gate: it regenerates a claim of the paper,
is not part of the tier-1 suite, and CI only collects it (``make
bench-collect``); the repo's benchmark is the ledger
(``benchmarks/ledger/``, ``make ledger``).
"""


from repro.siemens import diagnostic_catalog
from repro.starql import STARQLTranslator, parse_starql


def _naive_translator(deployment):
    """Unfolding without mapping pruning = the hand-written fleet size."""
    from repro.mappings.saturation import existential_subontology, saturate_mappings

    translator = STARQLTranslator(
        deployment.ontology,
        deployment.mappings,
        deployment.engine,
        deployment.macros,
        primary_keys=deployment.primary_keys,
    )  # reconfigured below: unpruned saturated mappings
    translator.saturated = saturate_mappings(
        deployment.mappings, deployment.ontology, prune=False
    )
    from repro.mappings import Unfolder
    from repro.rewriting import PerfectRef

    translator._rewriter = PerfectRef(
        existential_subontology(deployment.ontology)
    )
    translator._unfolder = Unfolder(
        translator.saturated, deployment.primary_keys
    )
    return translator


def test_fleet_sizes_across_catalog(fresh_deployment, benchmark):
    catalog = diagnostic_catalog()
    naive = _naive_translator(fresh_deployment)

    def translate_all():
        rows = []
        for task in catalog:
            query = parse_starql(task.starql)
            optimised = fresh_deployment.translator.translate(
                query, name=f"opt{task.task_id}"
            )
            try:
                raw = naive.translate(query, name=f"naive{task.task_id}")
                naive_fleet = raw.fleet_size
            except Exception:
                naive_fleet = None  # blow-up: fleet too large to build
            rows.append(
                (
                    task.task_id,
                    len(task.starql),
                    naive_fleet,
                    optimised.fleet_size,
                    len(optimised.sql),
                )
            )
        return rows

    rows = benchmark.pedantic(translate_all, rounds=1, iterations=1)

    total_naive = sum(r[2] for r in rows if r[2])
    total_opt = sum(r[3] for r in rows)
    print("\ntask  starql_chars  naive_fleet  optimised_fleet  sql_chars")
    for task_id, starql_chars, naive_fleet, opt_fleet, sql_chars in rows:
        print(
            f"{task_id:>4} {starql_chars:>13} "
            f"{naive_fleet if naive_fleet is not None else '>500':>11} "
            f"{opt_fleet:>16} {sql_chars:>10}"
        )
    print(
        f"\n20 STARQL queries -> {total_naive}+ naive / "
        f"{total_opt} optimised low-level queries"
    )
    # Paper shape: the naive fleet is large (hundreds across the catalog);
    # every task generates at least one data query; the generated SQL
    # dwarfs the STARQL the user writes.
    assert total_naive >= 200
    assert all(r[3] >= 1 for r in rows)
    # the optimiser shrinks the naive fleet by an order of magnitude
    assert total_naive >= 10 * total_opt
