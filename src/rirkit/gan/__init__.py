"""The WaveGAN-style RIR GAN: ``layers`` (forward and backward passes),
``nets`` (generator and critic), ``training`` (the WGAN loop) and
``checkpoint`` (the ``IRGAN01`` file format). Import each name from its module."""
