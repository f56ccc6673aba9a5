import partialid


def test_every_export_resolves():
    # deleting a function must not leave its name behind in __all__
    for name in partialid.__all__:
        getattr(partialid, name)
