from stsa.cli import main

raise SystemExit(main())
