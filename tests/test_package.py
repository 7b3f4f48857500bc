import frechet_laplace


def test_every_export_resolves():
    missing = [name for name in frechet_laplace.__all__
               if not hasattr(frechet_laplace, name)]
    assert missing == []
