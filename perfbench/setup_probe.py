"""The library's set-up cost: ``import rm2cover`` plus the lazy set-up a
first operation would otherwise pay (the catalog tables and the scan's
sign tables at n=6 and n=7, built by one scan block each).

Run as a script in a fresh process, it prints the seconds this took.
"""

import time


def lazy_setup() -> None:
    from rm2cover import catalog, core, quadratic

    for name in catalog.catalog_names():
        catalog.catalog_function(name)
    six = catalog.catalog_function("fun_6")
    quadratic.coset_nonlinearities(six, 0, 1)
    quadratic.coset_nonlinearities(core.concatenate(catalog.catalog_function("fun_4"), six), 0, 1)


if __name__ == "__main__":
    start = time.perf_counter()
    lazy_setup()
    print(time.perf_counter() - start)
